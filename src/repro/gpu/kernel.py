"""Per-thread kernel contexts and per-launch accounting.

Kernels are plain Python callables invoked once per simulated GPU thread
with a :class:`ThreadContext` as first argument::

    def set_kernel(ctx, kvs, batch):
        i = ctx.tid.global_id
        ...
        ctx.store(kvs.region, offset, value, dtype=np.uint64)
        ctx.persist()            # __threadfence_system()

A kernel may instead be a *generator function*; each bare ``yield`` is a
block-wide barrier (``__syncthreads()``), which is how the prefix-sum kernel
of Fig. 8 expresses its two persist phases.

Stores to **host** memory (PM or DRAM mapped through UVA) are buffered per
thread and drain on :meth:`ThreadContext.persist` - the system-scope fence -
at which point they join their warp's *drain batch*.  Batches are delivered
to the machine at warp (or barrier) boundaries so that the 32 lockstep
threads of a warp coalesce: adjacent 4 B stores merge into 128 B PCIe
transactions and a single Optane drain epoch, exactly the effect HCL is
designed to exploit.  Stores to HBM are immediate and only metered.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..sim.machine import Machine
from ..sim.memory import MemKind, Region
from .hierarchy import Dim3, ThreadId


class GpuFault(Exception):
    """A kernel performed an illegal operation (bad address, bad region)."""


#: Round key for stores that were never explicitly fenced; they drain at
#: warp retirement ("eventual" durability) without counting as fence rounds.
_IMPLICIT_ROUND = 1 << 30


@dataclass
class LaunchAccounting:
    """Traffic and compute tallies for one kernel launch."""

    ops: int = 0
    hbm_read_bytes: int = 0
    hbm_write_bytes: int = 0
    host_read_bytes: int = 0
    host_write_bytes: int = 0
    host_write_tx: int = 0
    pm_media_time: float = 0.0
    fences: int = 0
    #: max persist rounds observed in any single warp (fence critical path)
    max_warp_rounds: int = 0
    #: warps that issued at least one host write (concurrency estimate)
    warps_with_host_writes: int = 0
    #: lower bound on elapsed time imposed by software serialisation
    #: (e.g. lock-ordered inserts into a conventional log partition)
    serial_time: float = 0.0


@dataclass
class KernelResult:
    """Outcome of one kernel launch."""

    elapsed: float
    accounting: LaunchAccounting
    threads: int
    warps: int
    #: Which execution lane ran the kernel: "scalar" (thread-at-a-time) or
    #: "warp" (the vectorized lane of :mod:`repro.gpu.warp`).
    lane: str = "scalar"


class _WarpDrainBuffer:
    """Pending persist batches for one warp, keyed by fence round.

    Stores accumulate as plain per-region lists; they are converted to
    arrays and merged into coalesced segments exactly once, when the round
    drains (``_BlockEngine._drain_queue``).  The scalar lane appends python
    ints (:meth:`add_many`); the warp lane appends whole numpy batches
    (:meth:`add_batches`, :meth:`add_arrays`) - a round's lists hold one
    kind or the other, never a mix, and the drain queue normalises either.

    Rounds key their per-region buckets by the monotonic ``Region.token``,
    never ``id(region)``: CPython recycles the id of a freed region for the
    next same-type allocation, so a free+realloc between stores of one
    kernel would silently merge two distinct regions' segments (the same
    aliasing class fixed for Optane stream identity and LLC dirty lines).
    """

    __slots__ = ("rounds",)

    def __init__(self) -> None:
        #: round -> region token -> (region, starts, lengths); a round's
        #: bucket dict is created on its first append.
        self.rounds: dict[int, dict[int, tuple[Region, list, list]]] = (
            defaultdict(dict))

    def add_many(self, round_no: int, pending: list[tuple[Region, int, int]]) -> None:
        """Move a thread's whole pending list into ``round_no`` in one pass."""
        per_region = self.rounds[round_no]
        get = per_region.get
        for region, start, length in pending:
            key = region.token
            entry = get(key)
            if entry is None:
                per_region[key] = entry = (region, [], [])
                get = per_region.get
            entry[1].append(start)
            entry[2].append(length)

    def add_arrays(self, round_no: int, region: Region, starts: np.ndarray,
                   lengths: np.ndarray) -> None:
        """Append one vectorized store batch (the warp lane's unit)."""
        self.add_batches(round_no, ((region, starts, lengths, None),))

    def add_batches(self, round_no: int, pending) -> None:
        """Move a warp's whole pending list - ``(region, starts, lengths,
        lanes)`` batches - into ``round_no`` in one pass."""
        per_region = self.rounds[round_no]
        for region, starts, lengths, _lanes in pending:
            entry = per_region.get(region.token)
            if entry is None:
                per_region[region.token] = entry = (region, [], [])
            entry[1].append(starts)
            entry[2].append(lengths)


class ThreadContext:
    """The device-side view of one GPU thread.

    Exposes CUDA-equivalent primitives: typed loads/stores, atomics, scoped
    fences, and op charging for arithmetic the simulator cannot see.
    """

    __slots__ = ("tid", "shared", "_engine", "_pending", "_round")

    def __init__(self, tid: ThreadId, shared, engine: "_BlockEngine") -> None:
        self.tid = tid
        #: Per-threadblock shared memory (scratchpad); any mutable object.
        self.shared = shared
        self._engine = engine
        #: (region, start, length) stores awaiting a system fence.
        self._pending: list[tuple[Region, int, int]] = []
        self._round = 0

    # -- identity helpers -------------------------------------------------

    @property
    def global_id(self) -> int:
        return self.tid.global_id

    @property
    def block_id(self) -> int:
        return self.tid.block_flat

    @property
    def thread_in_block(self) -> int:
        return self.tid.thread_flat

    @property
    def lane(self) -> int:
        return self.tid.lane

    @property
    def block_dim(self) -> int:
        return self.tid.block_dim.count

    @property
    def grid_dim(self) -> int:
        return self.tid.grid_dim.count

    # -- compute ----------------------------------------------------------

    def charge_ops(self, n: int) -> None:
        """Charge ``n`` abstract arithmetic operations to this kernel."""
        self._engine.acct.ops += n

    def charge_serial_time(self, total_seconds: float) -> None:
        """Raise the launch's serialisation floor to ``total_seconds``.

        Software structures that serialise threads (e.g. a lock-protected
        log partition) cannot be expressed through parallel traffic models;
        they instead declare the accumulated critical-section time of their
        most contended resource, which lower-bounds the kernel's elapsed
        time.
        """
        acct = self._engine.acct
        if total_seconds > acct.serial_time:
            acct.serial_time = total_seconds

    # -- memory -----------------------------------------------------------

    def load(self, region: Region, offset: int, dtype=np.uint8, count: int = 1):
        """Typed load; returns a scalar (count==1) or a copied array."""
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * count
        data = region.read_bytes(offset, nbytes).view(dtype)
        self._engine.meter_read(region, nbytes)
        self._engine.acct.ops += 1
        if count == 1:
            return data[0]
        return data.copy()

    def store(self, region: Region, offset: int, value, dtype=np.uint8) -> None:
        """Typed store of a scalar or array.

        Visible immediately (coherent readers see it); persistence of host
        stores requires a subsequent :meth:`persist`.
        """
        arr = np.asarray(value, dtype=np.dtype(dtype))
        # Byte view without the tobytes()/frombuffer round trip; reshape(-1)
        # also lifts 0-d scalars to 1-d so the view is legal.
        raw = np.ascontiguousarray(arr).reshape(-1).view(np.uint8)
        region.write_bytes(offset, raw)
        self._engine.meter_write(self, region, offset, raw.size)
        self._engine.acct.ops += 1

    def _atomic_write(self, region: Region, offset: int, value, dtype) -> None:
        """The write half of an atomic RMW, via the same path as stores."""
        raw = np.asarray(value, dtype=dtype).reshape(-1).view(np.uint8)
        region.write_bytes(offset, raw)

    def atomic_add(self, region: Region, offset: int, value, dtype=np.int64):
        """Atomic fetch-and-add; returns the previous value."""
        dtype = np.dtype(dtype)
        old = dtype.type(region.read_bytes(offset, dtype.itemsize).view(dtype)[0])
        self._atomic_write(region, offset, old + dtype.type(value), dtype)
        self._engine.meter_atomic(self, region, offset, dtype.itemsize)
        return old

    def atomic_cas(self, region: Region, offset: int, expected, desired, dtype=np.int64):
        """Atomic compare-and-swap; returns the previous value."""
        dtype = np.dtype(dtype)
        old = dtype.type(region.read_bytes(offset, dtype.itemsize).view(dtype)[0])
        if old == dtype.type(expected):
            self._atomic_write(region, offset, dtype.type(desired), dtype)
        self._engine.meter_atomic(self, region, offset, dtype.itemsize)
        return old

    def atomic_max(self, region: Region, offset: int, value, dtype=np.int64):
        """Atomic max; returns the previous value."""
        dtype = np.dtype(dtype)
        old = dtype.type(region.read_bytes(offset, dtype.itemsize).view(dtype)[0])
        self._atomic_write(region, offset, max(old, dtype.type(value)), dtype)
        self._engine.meter_atomic(self, region, offset, dtype.itemsize)
        return old

    # -- fences -----------------------------------------------------------

    def persist(self) -> None:
        """System-scope fence: ``__threadfence_system()``.

        Guarantees this thread's prior host-memory stores have reached the
        host memory controllers.  With DDIO disabled (libGPM's persist
        window) the drained stores are durable; with DDIO enabled they stop
        at the volatile LLC - visibility without persistence, the trap GPM
        exists to close.
        """
        self._engine.fence(self)

    def threadfence_system(self) -> None:
        """CUDA-spelled alias of :meth:`persist`."""
        self._engine.fence(self)

    def threadfence(self) -> None:
        """Device-scope fence: orders visibility, guarantees no durability."""
        self._engine.acct.ops += 1

    def threadfence_block(self) -> None:
        self._engine.acct.ops += 1
