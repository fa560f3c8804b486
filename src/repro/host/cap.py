"""CPU-Assisted Persistence (CAP): today's baselines for GPU + PM.

Figure 2(a) of the paper: without GPM, a GPU application persists results in
three steps - (1) the driver DMAs data from GPU memory to host DRAM, (2) the
CPU copies it to NVM, (3) the CPU guarantees persistence by evicting cache
contents.  The paper evaluates two realisations plus an eADR projection:

* **CAP-fs**: step 2+3 via the ext4-DAX filesystem - ``write()`` then
  ``fsync()``.
* **CAP-mm**: the PM file is memory-mapped; cudaMemcpy stages through a
  pinned bounce buffer, then CPU threads copy and CLFLUSHOPT+SFENCE.  Uses
  the best-performing thread count (Section 6.1).
* **CAP-eADR** (Fig. 10): CAP-mm minus the cache flushes - with eADR data
  is durable once in the LLC, but the GPU->CPU transfer remains.
"""

from __future__ import annotations

import enum
import itertools

from ..sim.memory import MemKind, Region
from .filesystem import PmFile



class CapMode(enum.Enum):
    """Which CAP realisation to model."""

    FS = "cap-fs"
    MM = "cap-mm"
    EADR = "cap-eadr"


class CapEngine:
    """The three-step CAP persistence pipeline."""

    def __init__(self, system, mode: CapMode, threads: int | None = None) -> None:
        self.system = system
        self.mode = mode
        #: CPU threads used for the host-side copy/persist.  ``None`` picks
        #: the best-performing count, as the paper does.
        self.threads = threads
        self._bounce: Region | None = None
        # Per-engine suffix for bounce-buffer names: keeps region names (and
        # hence event streams) deterministic for a given run, regardless of
        # how many systems the process built before this one.
        self._bounce_ids = itertools.count()
        if mode is CapMode.EADR and not system.eadr:
            raise ValueError('CAP-eADR requires a System(persistency="eadr") platform')

    # ------------------------------------------------------------------

    def _bounce_buffer(self, nbytes: int) -> Region:
        """The driver's pinned DRAM bounce buffer, grown on demand."""
        if self._bounce is None or self._bounce.size < nbytes:
            if self._bounce is not None:
                self.system.machine.free(self._bounce)
            machine = self.system.machine
            # Skip names another engine on this machine already holds (e.g. a
            # recovery driver built alongside the original run's driver).
            name = f"cap-bounce-{next(self._bounce_ids)}"
            while name in machine._regions:
                name = f"cap-bounce-{next(self._bounce_ids)}"
            self._bounce = machine.alloc_dram(name, max(nbytes, 1 << 16))
        return self._bounce

    def persist_output(self, src: Region, src_off: int, dst: PmFile | Region,
                       dst_off: int, nbytes: int) -> float:
        """Run the full CAP pipeline for ``nbytes`` of GPU results.

        ``src`` must be GPU memory (HBM).  ``dst`` is the PM-resident file
        (CAP-fs) or its mapped region (CAP-mm / CAP-eADR).  Returns elapsed
        simulated seconds; the destination range is durable on return.
        """
        if nbytes == 0:
            return 0.0
        if src.kind is not MemKind.HBM:
            raise ValueError("CAP persists results produced in GPU memory")
        machine = self.system.machine
        start = machine.clock.now
        bounce = self._bounce_buffer(nbytes)
        self.system.dma.device_to_host(src, src_off, bounce, 0, nbytes, pinned=True)
        data = bounce.read_bytes(0, nbytes)

        if self.mode is CapMode.FS:
            f = self._as_file(dst)
            self.system.fs.write(f, dst_off, data)
            self.system.fs.fsync(f)
        elif self.mode is CapMode.MM:
            region = self._as_region(dst)
            self.system.cpu.write_and_persist(region, dst_off, data, threads=self.threads)
        else:  # CAP-eADR
            region = self._as_region(dst)
            elapsed_copy = nbytes / (
                self.system.config.cpu_memcpy_bw_single
                * self.system.config.cpu_persist_speedup(
                    self.threads or self.system.config.cpu_max_threads
                )
            )
            region.write_from(dst_off, data)
            machine.cpu_store_arrival(region, dst_off, nbytes)
            machine.clock.advance(elapsed_copy)
            machine.background_persist(region, dst_off, nbytes)
        return machine.clock.now - start

    @staticmethod
    def _as_file(dst) -> PmFile:
        if isinstance(dst, PmFile):
            return dst
        raise TypeError("CAP-fs needs a PmFile destination")

    @staticmethod
    def _as_region(dst) -> Region:
        if isinstance(dst, PmFile):
            return dst.region
        if isinstance(dst, Region):
            return dst
        raise TypeError(f"cannot persist into {type(dst).__name__}")
