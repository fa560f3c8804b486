"""GPMbench infrastructure: persistence modes, buffers, and run results.

Every GPMbench workload can execute under all the persistence systems the
paper evaluates (Figs. 9 and 10):

=========  ==================================================================
GPM        data on PM, in-kernel fine-grained persists (DDIO off in windows)
GPM-NDP    data on PM, direct loads/stores, but *no direct persistence*:
           DDIO stays on and the CPU flushes afterwards (Fig. 10)
GPM-eADR   GPM on a projected eADR platform: persists complete at the LLC
CAP-fs     kernel writes HBM; CPU persists results via write()+fsync()
CAP-mm     kernel writes HBM; CPU persists via mmap+CLFLUSHOPT+SFENCE
CAP-eADR   CAP-mm without the flushes (Fig. 10)
GPUfs      kernel writes HBM; per-threadblock gwrite RPCs persist via the OS
=========  ==================================================================

The central abstraction is :class:`PersistentBuffer`: a logical persistent
data structure that kernels address uniformly, realised as a PM mapping
(GPM modes) or as an HBM shadow plus a PM file persisted post-kernel (CAP
modes).  Write amplification (Table 4) *emerges* from this split: GPM
persists exactly the updated bytes, CAP must ship whole structures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..core.mapping import GpmRegion, gpm_map
from ..core.persist import gpm_persist_begin, gpm_persist_end
from ..gpu.memory import DeviceArray
from ..host.cap import CapEngine, CapMode
from ..host.filesystem import PmFile
from ..host.gpufs import GpuFs, GpufsUnsupported
from ..sim.events import WindowMark
from ..sim.persistency import make_model, mode_entry
from ..sim.stats import MachineStats, WindowedStats
from ..system import System


class Mode(enum.Enum):
    """Persistence system under test.

    A thin enum view over the single source of truth,
    ``repro.sim.persistency.MODE_REGISTRY``: every member's value is a
    registry key, and the data-path properties below are registry lookups.
    """

    GPM = "gpm"
    GPM_NDP = "gpm-ndp"
    GPM_EADR = "gpm-eadr"
    GPM_EPOCH = "gpm-epoch"
    GPM_RELAXED = "gpm-relaxed"
    GPM_ADAPTIVE = "gpm-adaptive"
    CAP_FS = "cap-fs"
    CAP_MM = "cap-mm"
    CAP_EADR = "cap-eadr"
    GPUFS = "gpufs"

    @classmethod
    def from_name(cls, name: str) -> "Mode":
        """Resolve a mode string; unknown names error with the known set."""
        mode_entry(name)  # raises ValueError listing known names
        return cls(name)

    @property
    def entry(self):
        """This mode's :class:`~repro.sim.persistency.ModeEntry`."""
        return mode_entry(self.value)

    @property
    def persistency_model(self) -> str:
        """Name of the persistency model the mode's machines run under."""
        return self.entry.model

    @property
    def data_on_pm(self) -> bool:
        """Do kernels load/store PM directly in this mode?"""
        return self.entry.data_on_pm

    @property
    def in_kernel_persist(self) -> bool:
        """Do kernels guarantee persistence themselves?"""
        return self.entry.in_kernel_persist

    @property
    def uses_persist_window(self) -> bool:
        """Does ``ModeDriver`` open a persist window around kernel phases?"""
        return self.entry.uses_persist_window

    @property
    def needs_eadr(self) -> bool:
        return self.entry.needs_eadr


class Category(enum.Enum):
    """GPMbench workload classes (Table 1)."""

    TRANSACTIONAL = "transactional"
    CHECKPOINT = "checkpointing"
    NATIVE = "native"


@dataclass
class RunResult:
    """Outcome of one workload run under one mode."""

    workload: str
    mode: Mode
    elapsed: float
    window: WindowedStats
    #: workload-specific figures of merit (ops, throughput, ...)
    extras: dict = field(default_factory=dict)

    @property
    def bytes_persisted(self) -> int:
        return self.window.stats.pm_bytes_written

    @property
    def pcie_write_bandwidth(self) -> float:
        return self.window.pcie_write_bandwidth


def make_system(mode: Mode) -> System:
    """A fresh platform carrying the mode's persistency model.

    Reads ``repro.sim.config.DEFAULT_CONFIG`` dynamically so ablations that
    swap the module-level default build the machine they asked for (the
    experiments runner keys its result cache on the same object).
    """
    from ..sim import config as _config

    return System(config=_config.DEFAULT_CONFIG,
                  persistency=make_model(mode.persistency_model))


class CrashConsistent:
    """Protocol for crash-consistency checking (``repro.check``).

    A workload or persistent structure states its crash invariants by
    overriding :meth:`declare_invariants`, returning plain
    ``(name, description, fn)`` triples where ``fn() -> (ok, detail)``
    judges the *recovered* state.  Triples keep the protocol
    dependency-free: implementors never import from ``repro.check``; the
    checker normalizes them into its typed form.  Invariants are evaluated
    after a simulated crash and :class:`~repro.core.recovery.RecoveryManager`
    recovery, so they should read durable state (``durable_view`` /
    ``np_persisted``) and be guarded against files the crash predates
    (``system.fs.exists``).
    """

    def declare_invariants(self, system) -> list:
        return []


class ModeDriver:
    """Realises one persistence mode for one workload run."""

    def __init__(self, system: System, mode: Mode) -> None:
        self.system = system
        self.mode = mode
        if mode.needs_eadr and not system.eadr:
            raise ValueError(f"{mode.value} needs an eADR platform")
        self._cap: CapEngine | None = None
        self._gpufs: GpuFs | None = None
        self._buffer_seq = 0

    # -- persist window management -----------------------------------------

    def persist_phase_begin(self) -> None:
        """Open the in-kernel persistence window where the mode has one."""
        if self.mode.uses_persist_window:
            gpm_persist_begin(self.system)

    def persist_phase_end(self) -> None:
        if self.mode.uses_persist_window:
            gpm_persist_end(self.system)

    # -- buffers -------------------------------------------------------------

    def buffer(self, path: str, size: int, fine_grained: bool = True,
               paper_bytes: int | None = None) -> "PersistentBuffer":
        """Create the mode-appropriate realisation of a persistent buffer."""
        self._buffer_seq += 1
        return PersistentBuffer(self, path, size, fine_grained, paper_bytes or size)

    @property
    def cap(self) -> CapEngine:
        if self._cap is None:
            cap_mode = {
                Mode.CAP_FS: CapMode.FS,
                Mode.CAP_MM: CapMode.MM,
                Mode.CAP_EADR: CapMode.EADR,
            }[self.mode]
            self._cap = CapEngine(self.system, cap_mode)
        return self._cap

    @property
    def gpufs(self) -> GpuFs:
        if self._gpufs is None:
            self._gpufs = GpuFs(self.system)
        return self._gpufs


class PersistentBuffer:
    """A logical persistent data structure, mode-appropriately realised.

    Kernels address :meth:`array` uniformly.  After (or during) compute,
    :meth:`persist_segments` / :meth:`persist_all` applies the mode's
    persistence path:

    * GPM / GPM-eADR: nothing - the kernel already persisted in place.
    * GPM-NDP: the CPU flushes the named segments out of the LLC.
    * CAP-*: the **whole buffer** is DMA'd and persisted (CAP cannot
      selectively persist at byte granularity - Section 3's limitation 3).
    * GPUfs: the whole buffer goes through per-threadblock gwrite RPCs.
    """

    def __init__(self, driver: ModeDriver, path: str, size: int,
                 fine_grained: bool, paper_bytes: int) -> None:
        self.driver = driver
        self.path = path
        self.size = size
        self.fine_grained = fine_grained
        self.paper_bytes = paper_bytes
        system = driver.system
        if driver.mode.data_on_pm:
            self.gpm: GpmRegion | None = gpm_map(system, path, size, create=True)
            self.kernel_region = self.gpm.region
            self.pm_file: PmFile | None = self.gpm.file
            self.hbm = None
        else:
            self.gpm = None
            self.hbm = system.machine.alloc_hbm(f"hbm:{path}", size)
            self.kernel_region = self.hbm
            self.pm_file = system.fs.create(path, size)

    @classmethod
    def reopen(cls, driver: ModeDriver, path: str,
               fine_grained: bool = True,
               paper_bytes: int | None = None) -> "PersistentBuffer":
        """Re-attach to an existing PM-resident buffer (post-crash resume).

        Only meaningful for the PM-direct modes, where the buffer's file
        survived the crash.
        """
        if not driver.mode.data_on_pm:
            raise ValueError("reopen requires a PM-direct mode")
        buf = cls.__new__(cls)
        buf.driver = driver
        buf.path = path
        buf.fine_grained = fine_grained
        buf.gpm = gpm_map(driver.system, path)
        buf.size = buf.gpm.size
        buf.paper_bytes = paper_bytes or buf.size
        buf.kernel_region = buf.gpm.region
        buf.pm_file = buf.gpm.file
        buf.hbm = None
        return buf

    # -- kernel-side view -----------------------------------------------------

    def array(self, dtype, offset: int = 0, count: int | None = None) -> DeviceArray:
        return DeviceArray(self.kernel_region, dtype, offset, count)

    # -- persistence ------------------------------------------------------------

    @property
    def wants_segments(self) -> bool:
        """Whether :meth:`persist_segments` actually uses the segment lists.

        Only GPM-NDP flushes the named segments; the in-kernel modes ignore
        them and CAP/GPUfs persist the whole buffer regardless.  Callers
        with expensive segment-list construction can skip it when False.
        """
        return self.driver.mode is Mode.GPM_NDP

    def persist_segments(self, starts, lengths) -> float:
        """Make the given byte segments durable, the mode's way.

        GPM already persisted in-kernel; NDP flushes exactly these segments
        from the CPU; CAP/GPUfs fall back to persisting the entire buffer
        (their write amplification).  Returns elapsed seconds.
        """
        mode = self.driver.mode
        if mode.in_kernel_persist:
            return 0.0
        if mode is Mode.GPM_NDP:
            return self.driver.system.cpu.persist_scattered(
                self.kernel_region, starts, lengths
            )
        return self.persist_all()

    def persist_all(self) -> float:
        """Make the whole buffer durable, the mode's way."""
        mode = self.driver.mode
        if mode.in_kernel_persist:
            return 0.0
        if mode is Mode.GPM_NDP:
            return self.driver.system.cpu.persist_range(self.kernel_region, 0, self.size)
        if mode is Mode.GPUFS:
            return self.driver.gpufs.gwrite_bulk(
                self.hbm, 0, self.pm_file, 0, self.size,
                paper_file_bytes=self.paper_bytes, fine_grained=self.fine_grained,
            )
        return self.driver.cap.persist_output(self.hbm, 0, self.pm_file, 0, self.size)

    def persist_range(self, offset: int, size: int) -> float:
        """Durably persist one contiguous range (e.g. appended DB rows).

        CAP *can* restrict transfers to a contiguous, host-known range -
        this is why gpDB INSERT's write amplification is only 1.27x while
        scattered UPDATEs pay ~20x (Table 4).
        """
        mode = self.driver.mode
        if mode.in_kernel_persist:
            return 0.0
        if mode is Mode.GPM_NDP:
            return self.driver.system.cpu.persist_range(self.kernel_region, offset, size)
        if mode is Mode.GPUFS:
            return self.driver.gpufs.gwrite_bulk(
                self.hbm, offset, self.pm_file, offset, size,
                paper_file_bytes=self.paper_bytes, fine_grained=self.fine_grained,
            )
        return self.driver.cap.persist_output(self.hbm, offset, self.pm_file, offset, size)

    # -- verification ------------------------------------------------------------

    def durable_view(self, dtype, offset: int = 0, count: int | None = None) -> np.ndarray:
        """What a post-crash reader would see (the persisted image)."""
        region = self.gpm.region if self.gpm is not None else self.pm_file.region
        return region.persisted_view(dtype, offset, count)

    def visible_view(self, dtype, offset: int = 0, count: int | None = None) -> np.ndarray:
        return self.kernel_region.view(dtype, offset, count)


def measure(system: System, fn, *args, **kwargs):
    """Run ``fn`` and return ``(its result, WindowedStats over the call)``.

    The window boundaries are also announced on the event bus as a
    ``WindowMark`` pair, so a recorded trace shows the measured section:
    folding the events between the two marks with
    :func:`~repro.sim.events.stats_from_events` gives exactly the stats
    delta returned here.
    """
    before = system.stats.snapshot()
    t0 = system.clock.now
    system.events.emit(WindowMark(phase="begin", label=getattr(fn, "__name__", "")))
    try:
        out = fn(*args, **kwargs)
    finally:
        system.events.emit(WindowMark(phase="end", label=getattr(fn, "__name__", "")))
    window = WindowedStats(
        stats=system.stats.delta_since(before), elapsed=system.clock.now - t0
    )
    return out, window
