"""The hardware event bus: one typed event per hardware primitive.

Every component of the simulated machine - the Optane media, the LLC/DDIO
boundary, the PCIe link, the GPU engine, the CPU software paths, the DMA
engine and the filesystem - announces what it just did by emitting exactly
one :class:`Event` per primitive action on the machine's :class:`EventBus`.
Consumers are pluggable subscribers:

* :class:`StatsAggregator` folds events into the cumulative
  :class:`~repro.sim.stats.MachineStats` counters (the bus is the *only*
  writer of those counters);
* :class:`~repro.sim.trace.TraceRecorder` keeps the ordered event stream
  and exports it as JSONL or a Chrome-trace JSON.

Windowed counters - the paper's traffic metrics and the WHISPER-style
profile of ``experiments/profile.py`` alike - are this one fold measured
between two :class:`WindowMark` events (``workloads.base.measure``).

Events are timestamped with the simulated clock at emission.  Every event is
a flat, slotted dataclass so the stream can round-trip through JSON:
:func:`event_to_record` / :func:`event_from_record` convert between events
and plain dicts, and :func:`stats_from_events` proves the counters are a
pure fold over the stream (``tests/sim/test_events.py`` reconstructs
``MachineStats`` from a saved trace alone).

Emission sites are batched, never per store: GPU stores coalesce per warp
drain round and arrive as one :class:`WarpDrain` carrying arrays, LLC
installs carry hit/fill counts for the whole burst, and a kernel's fences
arrive as one :class:`SystemFence` with a count.  Instrumentation therefore
gets *richer* (ordered, attributable events) while the kernel hot path does
strictly less Python work than per-store counter bumps.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as _dc_fields
from typing import Callable, Iterable

import numpy as np

from .clock import SimClock
from .stats import MachineStats

# --------------------------------------------------------------------------
# event taxonomy
# --------------------------------------------------------------------------

#: serialisation name -> event class, populated by :func:`_register`.
EVENT_TYPES: dict[str, type] = {}


def _register(cls):
    EVENT_TYPES[cls.etype] = cls
    return cls


@dataclass(slots=True)
class Event:
    """Base class of all hardware events (see module docstring)."""

    etype = "event"
    #: Crash-frontier taxonomy bucket (``repro.check``), a class attribute
    #: like ``etype``: events marking a semantically distinct persistency
    #: boundary carry a non-``None`` kind here, and the ordinal position of
    #: such events within a run is the deterministic coordinate system for
    #: frontier-armed crash injection
    #: (:meth:`repro.sim.crash.CrashInjector.arm_at_frontier`).  ``None``
    #: means crashing on the event can never change what a post-crash
    #: reader observes (pure metering, reads, lifecycle bookkeeping).
    frontier_kind = None


# -- GPU ---------------------------------------------------------------------


@_register
@dataclass(slots=True)
class KernelLaunch(Event):
    """A kernel entered the GPU pipeline (any flavour of launch)."""

    etype = "kernel_launch"
    frontier_kind = "kernel-launch"
    kind: str = "kernel"  # kernel | stream_copy | scatter | compute | inline


@_register
@dataclass(slots=True)
class SystemFence(Event):
    """``count`` system-scope fences (__threadfence_system) completed."""

    etype = "system_fence"
    frontier_kind = "fence"
    count: int = 1


@_register
@dataclass(slots=True)
class WarpDrain(Event):
    """One warp delivered a drain round of coalesced host-memory stores.

    ``starts``/``lengths`` are the *merged* byte segments of the round (the
    arrays handed to the PCIe and Optane models), so subscribers see exactly
    the traffic shape the hardware models priced.
    """

    etype = "warp_drain"
    frontier_kind = "warp-drain"
    region: str = ""
    round_no: int = 0
    segments: int = 0
    nbytes: int = 0
    starts: tuple = ()
    lengths: tuple = ()


@_register
@dataclass(slots=True)
class EpochBoundary(Event):
    """An epoch-persistency epoch closed (barrier or kernel completion).

    Emitted by the SIMT engine only under models whose ``fence_policy`` is
    ``"epoch"``, and only when the closing epoch initiated any persists.
    Between two boundaries, fences are unordered among themselves; crossing
    one is the moment ordering becomes observable - hence the dedicated
    frontier kind, which gives every epoch model crash-state exploration at
    exactly these points for free.
    """

    etype = "epoch_boundary"
    frontier_kind = "epoch-boundary"
    epoch: int = 0


@_register
@dataclass(slots=True)
class HbmWrite(Event):
    etype = "hbm_write"
    nbytes: int = 0


@_register
@dataclass(slots=True)
class HbmRead(Event):
    etype = "hbm_read"
    nbytes: int = 0


# -- PCIe link ---------------------------------------------------------------


@_register
@dataclass(slots=True)
class PcieWrite(Event):
    """GPU-to-host write traffic (persist-grade or streaming)."""

    etype = "pcie_write"
    nbytes: int = 0
    transactions: int = 0
    stream: bool = False


@_register
@dataclass(slots=True)
class PcieRead(Event):
    """Host-to-GPU read traffic over the link."""

    etype = "pcie_read"
    nbytes: int = 0
    stream: bool = False


@_register
@dataclass(slots=True)
class DmaTransfer(Event):
    """One bulk DMA (cudaMemcpy-style) crossing the link."""

    etype = "dma_transfer"
    frontier_kind = "dma"
    nbytes: int = 0
    to_gpu: bool = False
    initiated: bool = True


# -- Optane media ------------------------------------------------------------


@_register
@dataclass(slots=True)
class OptaneEpoch(Event):
    """One drain epoch reached the PM media.

    ``logical_bytes`` is what software asked to persist; ``media_bytes`` is
    what the XPLine read-modify-write actually wrote (Table 4's internal
    write amplification); ``media_time`` is the media seconds charged.
    """

    etype = "optane_epoch"
    frontier_kind = "optane-epoch"
    region: str = ""
    logical_bytes: int = 0
    media_bytes: int = 0
    segments: int = 0
    random_starts: int = 0
    media_time: float = 0.0
    grain: str = "epoch"  # epoch | flush_grain | line_drain


@_register
@dataclass(slots=True)
class PmRead(Event):
    etype = "pm_read"
    nbytes: int = 0
    random: bool = False


@_register
@dataclass(slots=True)
class BackgroundPersist(Event):
    """An eADR-domain background drain (durable at the LLC, free in time)."""

    etype = "background_persist"
    frontier_kind = "optane-epoch"
    region: str = ""
    nbytes: int = 0


# -- LLC / DDIO --------------------------------------------------------------


@_register
@dataclass(slots=True)
class LlcInstall(Event):
    """A burst of inbound writes dirtied LLC lines (DDIO steering)."""

    etype = "llc_install"
    region: str = ""
    hits: int = 0
    fills: int = 0


@_register
@dataclass(slots=True)
class LlcEvict(Event):
    """``lines`` dirty lines left the LLC by natural (LRU) eviction."""

    etype = "llc_evict"
    lines: int = 0


@_register
@dataclass(slots=True)
class LlcFlush(Event):
    """``lines`` dirty lines were explicitly flushed (CLFLUSHOPT path)."""

    etype = "llc_flush"
    frontier_kind = "cpu-flush"
    region: str = ""
    lines: int = 0


@_register
@dataclass(slots=True)
class DdioToggle(Event):
    """DDIO was switched (the paper's ``perfctrlsts_0`` write)."""

    etype = "ddio_toggle"
    frontier_kind = "persist-window"
    enabled: bool = True


# -- CPU / host software -----------------------------------------------------


@_register
@dataclass(slots=True)
class CpuDrain(Event):
    """One CPU flush+drain sequence (CLFLUSHOPT loop + SFENCE)."""

    etype = "cpu_drain"
    op: str = "flush"  # flush | scattered | nt_store


@_register
@dataclass(slots=True)
class CpuPmWrite(Event):
    """Bytes the CPU persisted to PM (CAP's software persist paths)."""

    etype = "cpu_pm_write"
    nbytes: int = 0


@_register
@dataclass(slots=True)
class GpuPmWrite(Event):
    """Bytes the GPU persisted to PM directly (DDIO-off fence path)."""

    etype = "gpu_pm_write"
    nbytes: int = 0


@_register
@dataclass(slots=True)
class DramWrite(Event):
    etype = "dram_write"
    nbytes: int = 0
    source: str = "cpu"  # cpu | gpu | dma


@_register
@dataclass(slots=True)
class Syscall(Event):
    etype = "syscall"
    op: str = ""
    count: int = 1


# -- request-serving layer (repro.serve) -------------------------------------


@_register
@dataclass(slots=True)
class ServiceRequest(Event):
    """One client request passed admission control (or was shed).

    Emitted by the serve front-end at arrival time; ``reason`` is empty for
    admitted requests, else the shed cause (``tenant-rate`` for a drained
    token bucket, ``queue-full`` for the global depth cap).  Pure software
    bookkeeping - never a persistency boundary.
    """

    etype = "service_request"
    tenant: str = ""
    op: str = "set"  # set | get | delete
    admitted: bool = True
    reason: str = ""


@_register
@dataclass(slots=True)
class ServiceBatch(Event):
    """The batcher launched one coalesced kernel batch.

    ``threads`` is the warp-sized launch footprint (a multiple of 32);
    ``n_ops`` the live requests inside it, so ``n_ops / threads`` is the
    batch occupancy.  ``shards`` counts the per-shard kernel launches the
    flush fanned into.
    """

    etype = "service_batch"
    op: str = "set"  # set | get | delete
    n_ops: int = 0
    threads: int = 0
    shards: int = 1


@_register
@dataclass(slots=True)
class ServiceComplete(Event):
    """One admitted request finished; ``latency`` is simulated seconds."""

    etype = "service_complete"
    tenant: str = ""
    op: str = "set"
    latency: float = 0.0
    coalesced: bool = False


# -- machine lifecycle -------------------------------------------------------


@_register
@dataclass(slots=True)
class RegionAlloc(Event):
    etype = "region_alloc"
    region: str = ""
    kind: str = ""
    size: int = 0


@_register
@dataclass(slots=True)
class RegionFree(Event):
    etype = "region_free"
    region: str = ""


@_register
@dataclass(slots=True)
class Crash(Event):
    """A simulated power failure hit the machine."""

    etype = "crash"
    eadr: bool = False


@_register
@dataclass(slots=True)
class WindowMark(Event):
    """Measurement-window boundary (emitted by ``workloads.base.measure``).

    Subscribers that must agree with windowed stats deltas (e.g. the
    persistence profile) accumulate only between ``begin`` and ``end``.
    """

    etype = "window_mark"
    phase: str = "begin"  # begin | end
    label: str = ""


@_register
@dataclass(slots=True)
class TraceMark(Event):
    """Free-form software annotation (checkpoint phases, log lifecycles)."""

    etype = "trace_mark"
    frontier_kind = "mark"
    category: str = ""
    label: str = ""


# --------------------------------------------------------------------------
# the bus
# --------------------------------------------------------------------------

#: Subscribers attached to every *subsequently created* bus (used by the
#: trace CLI and tests to observe systems built deep inside workloads).
_GLOBAL_SUBSCRIBERS: list[Callable[[float, Event], None]] = []


def add_global_subscriber(subscriber: Callable[[float, Event], None]) -> None:
    """Attach ``subscriber`` to every :class:`EventBus` created afterwards."""
    _GLOBAL_SUBSCRIBERS.append(subscriber)


def remove_global_subscriber(subscriber: Callable[[float, Event], None]) -> None:
    try:
        _GLOBAL_SUBSCRIBERS.remove(subscriber)
    except ValueError:
        pass


class EventBus:
    """Synchronous pub/sub fabric for one machine's hardware events.

    Subscribers are callables ``(timestamp_seconds, event) -> None`` invoked
    in subscription order; emission is synchronous so subscribers observe
    events exactly in hardware order.
    """

    __slots__ = ("_clock", "_subscribers", "emit")

    def __init__(self, clock=None) -> None:
        # A bus built without a clock stamps every event at t = 0.
        self._clock = clock if clock is not None else SimClock()
        self._subscribers: list[Callable[[float, Event], None]] = list(
            _GLOBAL_SUBSCRIBERS
        )
        self._rebind()

    def _rebind(self) -> None:
        # The emit attribute is rebound to the cheapest correct variant so
        # the common one-subscriber case (just the stats aggregator) costs a
        # single call on the kernel path.  Timestamps read the clock's
        # ``_now`` attribute directly, not the ``now`` property.
        clock = self._clock
        if len(self._subscribers) == 1:

            def emit(event: Event, _single=self._subscribers[0], _clock=clock) -> None:
                _single(_clock._now, event)

        else:

            def emit(event: Event, _subscribers=self._subscribers, _clock=clock) -> None:
                ts = _clock._now
                for sub in list(_subscribers):
                    sub(ts, event)

        self.emit = emit

    def subscribe(self, subscriber: Callable[[float, Event], None]) -> None:
        self._subscribers.append(subscriber)
        self._rebind()

    def unsubscribe(self, subscriber: Callable[[float, Event], None]) -> None:
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            pass
        self._rebind()

    @property
    def subscribers(self) -> tuple:
        return tuple(self._subscribers)


# --------------------------------------------------------------------------
# stats aggregation
# --------------------------------------------------------------------------


class StatsAggregator:
    """Folds the event stream into :class:`MachineStats` counters.

    This is the machine's always-on subscriber: ``Machine.stats`` is simply
    the aggregate of every event the hardware has emitted, and the mapping
    below is the single source of truth for what each counter means.
    """

    def __init__(self, stats: MachineStats | None = None) -> None:
        self.stats = stats if stats is not None else MachineStats()
        s = self.stats
        self._handlers: dict[type, Callable[[Event], None]] = {
            KernelLaunch: self._on_kernel,
            SystemFence: self._on_fence,
            PcieWrite: self._on_pcie_write,
            PcieRead: self._on_pcie_read,
            DmaTransfer: self._on_dma,
            OptaneEpoch: self._on_optane_epoch,
            PmRead: self._on_pm_read,
            BackgroundPersist: self._on_background_persist,
            LlcInstall: self._on_llc_install,
            LlcEvict: self._on_llc_evict,
            LlcFlush: self._on_llc_flush,
            CpuDrain: self._on_cpu_drain,
            CpuPmWrite: self._on_cpu_pm_write,
            GpuPmWrite: self._on_gpu_pm_write,
            DramWrite: self._on_dram_write,
            HbmWrite: self._on_hbm_write,
            HbmRead: self._on_hbm_read,
            Syscall: self._on_syscall,
        }
        self._stats = s

    def __call__(self, ts: float, event: Event) -> None:
        handler = self._handlers.get(type(event))
        if handler is not None:
            handler(event)

    # -- one small handler per counter-bearing event ----------------------

    def _on_kernel(self, e: KernelLaunch) -> None:
        self._stats.kernels_launched += 1

    def _on_fence(self, e: SystemFence) -> None:
        self._stats.system_fences += e.count

    def _on_pcie_write(self, e: PcieWrite) -> None:
        self._stats.pcie_bytes_to_host += e.nbytes
        self._stats.pcie_transactions += e.transactions

    def _on_pcie_read(self, e: PcieRead) -> None:
        self._stats.pcie_bytes_to_gpu += e.nbytes

    def _on_dma(self, e: DmaTransfer) -> None:
        if e.to_gpu:
            self._stats.pcie_bytes_to_gpu += e.nbytes
        else:
            self._stats.pcie_bytes_to_host += e.nbytes
        if e.initiated:
            self._stats.dma_transfers += 1

    def _on_optane_epoch(self, e: OptaneEpoch) -> None:
        self._stats.pm_bytes_written += e.logical_bytes
        self._stats.pm_bytes_written_internal += e.media_bytes

    def _on_pm_read(self, e: PmRead) -> None:
        self._stats.pm_bytes_read += e.nbytes

    def _on_background_persist(self, e: BackgroundPersist) -> None:
        self._stats.pm_bytes_written += e.nbytes
        self._stats.pm_bytes_written_internal += e.nbytes

    def _on_llc_install(self, e: LlcInstall) -> None:
        self._stats.llc_ddio_hits += e.hits
        self._stats.llc_ddio_fills += e.fills

    def _on_llc_evict(self, e: LlcEvict) -> None:
        self._stats.llc_evictions += e.lines

    def _on_llc_flush(self, e: LlcFlush) -> None:
        self._stats.cache_lines_flushed += e.lines

    def _on_cpu_drain(self, e: CpuDrain) -> None:
        self._stats.cpu_drains += 1

    def _on_cpu_pm_write(self, e: CpuPmWrite) -> None:
        self._stats.pm_bytes_written_by_cpu += e.nbytes

    def _on_gpu_pm_write(self, e: GpuPmWrite) -> None:
        self._stats.pm_bytes_written_by_gpu += e.nbytes

    def _on_dram_write(self, e: DramWrite) -> None:
        self._stats.dram_bytes_written += e.nbytes

    def _on_hbm_write(self, e: HbmWrite) -> None:
        self._stats.hbm_bytes_written += e.nbytes

    def _on_hbm_read(self, e: HbmRead) -> None:
        self._stats.hbm_bytes_read += e.nbytes

    def _on_syscall(self, e: Syscall) -> None:
        self._stats.syscalls += e.count


# --------------------------------------------------------------------------
# (de)serialisation
# --------------------------------------------------------------------------


def event_to_record(ts: float, event: Event) -> dict:
    """Flatten one timestamped event into a JSON-serialisable dict."""
    record: dict = {"ts": ts, "event": event.etype}
    for f in _dc_fields(event):
        value = getattr(event, f.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, np.integer):
            value = int(value)
        elif isinstance(value, np.floating):
            value = float(value)
        record[f.name] = value
    return record


def event_from_record(record: dict) -> tuple[float, Event]:
    """Rebuild ``(timestamp, event)`` from :func:`event_to_record` output."""
    cls = EVENT_TYPES[record["event"]]
    kwargs = {}
    for f in _dc_fields(cls):
        if f.name in record:
            value = record[f.name]
            if isinstance(value, list):
                value = tuple(value)
            kwargs[f.name] = value
    return float(record["ts"]), cls(**kwargs)


def stats_from_events(events: Iterable[tuple[float, Event]]) -> MachineStats:
    """Fold an event stream (e.g. a loaded trace) into fresh counters.

    The acceptance property of the instrumentation layer: replaying the
    recorded stream reproduces ``Machine.stats`` exactly.
    """
    aggregator = StatsAggregator()
    for ts, event in events:
        aggregator(ts, event)
    return aggregator.stats
