"""One served run, end to end: traffic -> admission -> batches -> shards.

:func:`run_service` is the composition root the CLI and bench harness call:
it builds the store (with its sharded logs), the admission controller, the
batcher and the event-loop front-end from one :class:`ServiceConfig`,
runs the configured traffic to completion, and returns the deterministic
service summary.  The same seed yields a byte-identical summary - the
property ``python -m repro serve`` advertises and the tests pin.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..workloads.base import Mode, make_system
from .admission import AdmissionConfig, AdmissionController
from .batcher import Batcher, BatcherConfig
from .frontend import Frontend
from .metrics import ServiceMetrics
from .store import ShardedKvStore, StoreConfig
from .traffic import TrafficConfig, TrafficGenerator


@dataclass
class ServiceConfig:
    """Everything one served run depends on (all simulated units)."""

    mode: str = "gpm"
    tenants: int = 4
    shards: int = 4
    #: per-tenant offered rate, ops per simulated second
    rate: float = 500_000.0
    #: simulated seconds of traffic
    duration: float = 2e-3
    seed: int = 42
    read_fraction: float = 0.5
    delete_fraction: float = 0.05
    theta: float = 0.99
    key_space: int = 8192
    #: admission: contracted per-tenant rate (defaults to 1.25x offered)
    tenant_rate: float | None = None
    tenant_burst: float = 256.0
    max_queue_depth: int = 2048
    #: batching: size trigger and linger timeout
    target_batch: int = 128
    linger: float = 20e-6
    #: store geometry
    n_sets: int = 4096
    ways: int = 8

    def __post_init__(self) -> None:
        checks = (
            (self.tenants >= 1, f"tenants must be >= 1, got {self.tenants}"),
            (self.shards >= 1, f"shards must be >= 1, got {self.shards}"),
            (self.rate > 0, f"rate must be > 0, got {self.rate}"),
            (self.duration >= 0, f"duration must be >= 0, got {self.duration}"),
            (0 <= self.read_fraction <= 1,
             f"read fraction must be in [0, 1], got {self.read_fraction}"),
            (self.delete_fraction >= 0
             and self.read_fraction + self.delete_fraction <= 1,
             f"delete fraction must be >= 0 and at most 1 - read fraction, "
             f"got {self.delete_fraction}"),
            (0 <= self.theta < 1, f"theta must be in [0, 1), got {self.theta}"),
            (self.target_batch >= 1,
             f"target batch must be >= 1, got {self.target_batch}"),
            (self.linger >= 0, f"linger must be >= 0, got {self.linger}"),
        )
        for ok, message in checks:
            if not ok:
                raise ValueError(message)

    def traffic(self) -> TrafficConfig:
        return TrafficConfig(
            tenants=self.tenants, rate=self.rate, duration=self.duration,
            read_fraction=self.read_fraction,
            delete_fraction=self.delete_fraction, theta=self.theta,
            key_space=self.key_space, seed=self.seed,
        )

    def admission(self) -> AdmissionConfig:
        rate = self.tenant_rate if self.tenant_rate is not None else self.rate * 1.25
        return AdmissionConfig(tenant_rate=rate, tenant_burst=self.tenant_burst,
                               max_queue_depth=self.max_queue_depth)

    def store(self) -> StoreConfig:
        return StoreConfig(n_sets=self.n_sets, ways=self.ways,
                           n_shards=self.shards,
                           max_batch=max(256, self.target_batch))

    def batcher(self) -> BatcherConfig:
        return BatcherConfig(target_batch=self.target_batch, linger=self.linger)


def run_service(config: ServiceConfig | None = None, system=None,
                crash_injector=None) -> dict:
    """Run one served window; returns ``{"config", "summary"}``.

    ``summary`` is deterministic per seed.

    With a ``crash_injector`` armed, a mid-flush
    :class:`~repro.sim.crash.SimulatedCrash` propagates to the caller with
    the system left in its crashed state (recover via
    :func:`~repro.serve.store.recover_store`).
    """
    config = config or ServiceConfig()
    mode = Mode.from_name(config.mode)
    system = system or make_system(mode)
    store = ShardedKvStore.create(mode, system, config.store())
    admission = AdmissionController(config.admission())
    batcher = Batcher(store, admission, config.batcher())
    metrics = ServiceMetrics()
    metrics.attach(system.events)
    frontend = Frontend(system, admission, batcher, crash_injector=crash_injector)
    streams = TrafficGenerator(config.traffic()).streams()
    start = system.clock.now
    try:
        frontend.run(streams)
    finally:
        metrics.detach(system.events)
    elapsed = system.clock.now - start
    summary = metrics.summary(elapsed)
    return {"config": asdict(config), "summary": summary}
