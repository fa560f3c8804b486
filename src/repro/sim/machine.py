"""The simulated machine: devices, persistence domains, and crash semantics.

:class:`Machine` composes the memory devices (:mod:`repro.sim.memory`), the
Optane model, the LLC/DDIO boundary, the PCIe link, a simulated clock and the
traffic counters into one object with a small set of *hardware primitives*:

* routing of inbound I/O (GPU) writes to host memory, honouring DDIO;
* CPU store / flush / non-temporal-store paths to PM;
* the DDIO enable/disable switch (the paper writes the ``perfctrlsts_0``
  I/O register; we flip a bit);
* :meth:`crash` - power-failure semantics over every region and the cache.

Higher layers (:mod:`repro.gpu`, :mod:`repro.host`, :mod:`repro.core`) build
the GPU engine, CPU software and libGPM on top of these primitives; they
never touch ``Region.persisted`` directly.

Instrumentation: every primitive emits one typed event on the machine's
:class:`~repro.sim.events.EventBus` (``machine.events``); the counters in
``machine.stats`` are maintained by the always-subscribed
:class:`~repro.sim.events.StatsAggregator`, and further subscribers (trace
recorders, profile sinks) can be attached without touching the hardware
models.  See ``docs/observability.md``.
"""

from __future__ import annotations

import numpy as np

from .cache import LastLevelCache
from .clock import SimClock
from .config import DEFAULT_CONFIG, SystemConfig
from .events import (
    BackgroundPersist,
    Crash,
    CpuDrain,
    CpuPmWrite,
    DdioToggle,
    DramWrite,
    EventBus,
    GpuPmWrite,
    RegionAlloc,
    RegionFree,
    StatsAggregator,
)
from .memory import MemKind, Region
from .optane import OptaneModel
from .pcie import PcieModel
from .persistency import PersistencyModel, resolve_model


class Machine:
    """One simulated Xeon + Optane + GPU platform."""

    def __init__(self, config: SystemConfig = DEFAULT_CONFIG,
                 persistency: PersistencyModel | str | None = None) -> None:
        self.config = config
        #: The machine's persistency model - ordering, persist-domain and
        #: data-path rules (``repro.sim.persistency``).
        self.persistency = resolve_model(persistency)
        self.clock = SimClock()
        #: The hardware event bus; ``stats`` is its first subscriber.
        self.events = EventBus(self.clock)
        self._aggregator = StatsAggregator()
        self.stats = self._aggregator.stats
        self.events.subscribe(self._aggregator)
        self.optane = OptaneModel(config, self.events)
        self.llc = LastLevelCache(config, self.events, self.optane)
        self.pcie = PcieModel(config, self.events)
        #: DDIO steers inbound I/O writes into the LLC when enabled (the
        #: hardware default).  libGPM's gpm_persist_begin/end toggles this.
        self.ddio_enabled = True
        self.crash_count = 0
        self._regions: dict[str, Region] = {}
        self.persistency.attach(self)

    @property
    def eadr(self) -> bool:
        """Whether the LLC is inside the persistence domain (model-owned)."""
        return self.persistency.eadr

    # -- allocation ------------------------------------------------------

    def alloc(self, name: str, size: int, kind: MemKind) -> Region:
        """Allocate a named region on the given device."""
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        region = Region(name, size, kind)
        self._regions[name] = region
        self.events.emit(RegionAlloc(region=name, kind=kind.value, size=size))
        return region

    def alloc_pm(self, name: str, size: int) -> Region:
        return self.alloc(name, size, MemKind.PM)

    def alloc_dram(self, name: str, size: int) -> Region:
        return self.alloc(name, size, MemKind.DRAM)

    def alloc_hbm(self, name: str, size: int) -> Region:
        return self.alloc(name, size, MemKind.HBM)

    def free(self, region: Region) -> None:
        """Release a region (PM contents are gone once freed)."""
        existing = self._regions.get(region.name)
        if existing is not region:
            raise KeyError(f"region {region.name!r} is not allocated on this machine")
        del self._regions[region.name]
        # Dirty LLC lines of a freed PM region must not write back into (or
        # resurrect) a later allocation that reuses the name.
        if region.kind is MemKind.PM:
            self.llc.drop_range(region, 0, region.size)
        self.events.emit(RegionFree(region=region.name))

    def region(self, name: str) -> Region:
        return self._regions[name]

    def has_region(self, name: str) -> bool:
        return name in self._regions

    @property
    def regions(self) -> tuple[Region, ...]:
        return tuple(self._regions.values())

    # -- DDIO ------------------------------------------------------------

    def set_ddio(self, enabled: bool) -> None:
        """Flip DDIO for inbound device writes (models ``perfctrlsts_0``)."""
        self.ddio_enabled = bool(enabled)
        self.events.emit(DdioToggle(enabled=self.ddio_enabled))

    # -- hardware write paths ---------------------------------------------

    def io_write_arrival(self, region: Region, starts: list[int],
                         lengths: list[int]) -> float:
        """Inbound I/O (GPU) writes reaching host memory.

        ``starts``/``lengths`` are merged runs within ``region``, given as
        Python ints (see :func:`~repro.sim.optane.merge_segment_lists`).
        Data is already visible (the writer updated ``region.visible``);
        this routes the persistence side-effect.  With DDIO on, PM-bound
        writes park in the volatile LLC and the returned host-side media
        time is zero (the fence completed at the LLC).  With DDIO off they
        drain straight to the Optane media as a single epoch, and the media
        time is returned so the caller can charge it to the fence.
        """
        if region.kind is MemKind.HBM:
            raise ValueError("HBM is not host memory; io writes target DRAM or PM")
        region.check_segments(starts, lengths)
        if region.kind is MemKind.DRAM:
            self.events.emit(DramWrite(nbytes=sum(lengths), source="gpu"))
            return 0.0
        if self.persistency.adaptive:
            routed = self.persistency.route_io_write(self, region, starts, lengths)
            if routed is not None:
                return routed
        if self.ddio_enabled:
            self.llc.install_writes(region, starts, lengths)
            return 0.0
        return self.optane.write_epochs(region, starts, lengths, (0, len(starts)),
                                        arrival_event=GpuPmWrite)[0]

    def io_write_arrival_groups(self, region: Region, starts: list[int],
                                lengths: list[int], bounds: list[int],
                                before_group=None) -> list[float]:
        """Batched :meth:`io_write_arrival`: one arrival per group.

        Group ``g`` is the merged runs ``bounds[g]:bounds[g + 1]`` of
        ``starts``/``lengths`` (Python ints) - one group per warp drain or
        per warp of a bulk scatter; they must lie within ``region``, as
        kernel stores do.  Emits the same events in the same order as
        sequential :meth:`io_write_arrival` calls and returns the per-group
        media seconds.  DDIO-off PM arrivals without adaptive routing drain
        in one :meth:`OptaneModel.write_epochs` call; every other case
        arrives group by group.  ``before_group(group)``, when given, fires
        before each group's events, letting the caller keep its own
        per-arrival events interleaved as sequential calls would.
        """
        if region.kind is MemKind.HBM:
            raise ValueError("HBM is not host memory; io writes target DRAM or PM")
        if (region.kind is MemKind.PM and not self.ddio_enabled
                and not self.persistency.adaptive):
            return self.optane.write_epochs(region, starts, lengths, bounds,
                                            arrival_event=GpuPmWrite,
                                            before_group=before_group)
        times = []
        for g in range(len(bounds) - 1):
            if before_group is not None:
                before_group(g)
            lo, hi = bounds[g], bounds[g + 1]
            times.append(self.io_write_arrival(region, starts[lo:hi], lengths[lo:hi]))
        return times

    def cpu_store_arrival(self, region: Region, offset: int, size: int) -> None:
        """CPU stores to host memory dirty LLC lines (for PM regions)."""
        if region.kind is MemKind.PM:
            self.llc.install_writes(region, [offset], [size])
        elif region.kind is MemKind.DRAM:
            self.events.emit(DramWrite(nbytes=size, source="cpu"))
        else:
            raise ValueError("CPU stores target host memory, not HBM")

    def cpu_flush(self, region: Region, offset: int, size: int) -> float:
        """CLFLUSHOPT+drain over a range; returns the media seconds."""
        self.events.emit(CpuDrain(op="flush"))
        return self.llc.flush_range(region, offset, size)

    def cpu_nt_store_arrival(self, region: Region, starts: list[int],
                             lengths: list[int]) -> float:
        """Non-temporal stores bypass the cache straight to the media."""
        if region.kind is MemKind.HBM:
            raise ValueError("CPU stores target host memory, not HBM")
        if region.kind is MemKind.DRAM:
            region.check_segments(starts, lengths)
            self.events.emit(DramWrite(nbytes=sum(lengths), source="cpu"))
            return 0.0
        time = self.optane.write_epoch(region, starts, lengths)
        self.events.emit(CpuPmWrite(nbytes=sum(lengths)))
        return time

    def background_persist(self, region: Region, offset: int, size: int) -> None:
        """Persist a range with zero foreground cost (eADR-domain drain).

        On an eADR platform data is durable once it reaches the LLC; the
        media drain happens asynchronously (on failure or in the
        background).  Counts media traffic but charges no time.
        """
        if not self.eadr:
            raise RuntimeError("background_persist is only meaningful with eADR")
        region.persist_range(offset, size)
        self.llc.drop_range(region, offset, size)
        self.events.emit(BackgroundPersist(region=region.name, nbytes=size))

    # -- failure ----------------------------------------------------------

    def durable_image(self, region: Region) -> np.ndarray:
        """The bytes PM ``region`` would hold if the machine crashed now.

        Equals ``region.persisted`` after :meth:`crash`, without crashing:
        it emits no event, advances no clock and leaves the LLC and the
        Optane stream as they are.  Returns a copy.
        """
        if region.persisted is None:
            raise TypeError(f"region {region.name!r} is volatile and has no durable image")
        return self.llc.durable_image(region, self.eadr)

    def restore_pm(self, name: str, chunks) -> Region:
        """Allocate PM region ``name`` holding a durable image.

        ``chunks`` are uint8 arrays laid end to end (one region's image,
        e.g. from :class:`~repro.check.census.ImageCensus`).  Both images
        hold the bytes, as after :meth:`crash`: a machine powered up over
        that durable state.
        """
        region = self.alloc_pm(name, sum(chunk.size for chunk in chunks))
        np.concatenate(chunks, out=region.persisted)
        region.persist_gen += 1
        region.visible[:] = region.persisted
        return region

    def crash(self) -> None:
        """Simulate a power failure / fail-stop crash.

        The LLC applies its (e)ADR semantics first, then every region keeps
        only its persisted image (PM) or is poisoned (DRAM/HBM).
        """
        self.events.emit(Crash(eadr=self.eadr))
        self.llc.crash(self.eadr)
        for region in self._regions.values():
            region.crash()
        self.optane.reset_stream()
        self.persistency.reset_after_crash()
        self.ddio_enabled = True
        self.crash_count += 1

    def drop_volatile_regions(self) -> None:
        """Forget volatile regions after a crash so names can be reused."""
        for name in [n for n, r in self._regions.items() if r.kind is not MemKind.PM]:
            del self._regions[name]
