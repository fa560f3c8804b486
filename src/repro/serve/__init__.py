"""repro.serve: a multi-tenant request-serving layer over the gpKVS store.

The reproduction's workloads run as one-shot batch experiments; MegaKV -
gpKVS's ancestor - was a *served* system.  This package adds that missing
layer on top of the existing simulator:

* :class:`~repro.serve.traffic.TrafficGenerator` - deterministic seeded
  open-loop client streams (Poisson arrivals, Zipfian key skew via
  :mod:`repro.workloads.distributions`, configurable read/write/delete mix);
* :class:`~repro.serve.admission.AdmissionController` - per-tenant token
  buckets plus a global queue-depth cap, with shed accounting;
* :class:`~repro.serve.batcher.Batcher` - coalesces admitted requests into
  warp-sized (multiples of 32) kernel launches against gpKVS's existing
  set/get/delete kernels;
* :class:`~repro.serve.shards.ShardedHclLog` - N independent HCL log
  shards keyed by key-hash range, so disjoint key ranges persist
  concurrently and recover shard-by-shard through the existing recovery
  kernel;
* :class:`~repro.serve.frontend.Frontend` - one event loop that runs the
  tenant streams on the machine's *simulated* clock (a heap of parked
  tenants), keeping every run deterministic under its seed;
* :class:`~repro.serve.metrics.ServiceMetrics` - an event-bus sink folding
  the service events into sustained throughput, per-tenant latency
  percentiles, batch occupancy, and shed rates.

``python -m repro serve`` drives one run; the repository benchmark's
``serve-ladder`` workload times a rate ladder (``bench/README.md``).  See
``docs/service.md``.
"""

from .admission import AdmissionController, TokenBucket
from .batcher import Batcher
from .frontend import Frontend
from .metrics import ServiceMetrics, render_summary
from .service import ServiceConfig, run_service
from .shards import ShardedHclLog, shard_of_sets
from .store import ShardedKvStore, StoreConfig, recover_store
from .traffic import Request, TenantStream, TrafficConfig, TrafficGenerator

__all__ = [
    "AdmissionController",
    "Batcher",
    "Frontend",
    "Request",
    "ServiceConfig",
    "ServiceMetrics",
    "ShardedHclLog",
    "ShardedKvStore",
    "StoreConfig",
    "TenantStream",
    "TokenBucket",
    "TrafficConfig",
    "TrafficGenerator",
    "recover_store",
    "render_summary",
    "run_service",
    "shard_of_sets",
]
