"""A PM-backed DAX filesystem model (ext4-DAX of Table 3).

Two roles:

* **Naming and lifetime of PM**: libGPM allocates persistent memory by
  memory-mapping PM-resident files (Section 5.1, via PMDK's libpmem).  A
  :class:`PmFile` owns a PM region that survives simulated crashes; the
  filesystem's namespace is itself persistent.
* **The CAP-fs persistence path** (Section 3): ``write()`` +
  ``fsync()``/``msync()`` with syscall overheads and the filesystem's
  software amplification on the persist bandwidth
  (:attr:`~repro.sim.config.SystemConfig.fs_bw_derate`).
"""

from __future__ import annotations

import numpy as np

from ..sim.events import CpuPmWrite, Syscall
from ..sim.machine import Machine
from ..sim.memory import Region


class FsError(Exception):
    """Filesystem-level failure (missing file, duplicate create, ...)."""


class PmFile:
    """A file on the DAX filesystem, backed by a PM region."""

    def __init__(self, path: str, region: Region) -> None:
        self.path = path
        self.region = region
        #: Bytes dirtied via write() since the last fsync.
        self._dirty_low: int | None = None
        self._dirty_high: int | None = None

    @property
    def size(self) -> int:
        return self.region.size

    def _mark_dirty(self, offset: int, size: int) -> None:
        high = offset + size
        self._dirty_low = offset if self._dirty_low is None else min(self._dirty_low, offset)
        self._dirty_high = high if self._dirty_high is None else max(self._dirty_high, high)

    def _take_dirty(self) -> tuple[int, int] | None:
        if self._dirty_low is None:
            return None
        span = (self._dirty_low, self._dirty_high - self._dirty_low)
        self._dirty_low = self._dirty_high = None
        return span


class DaxFilesystem:
    """The host's PM-resident filesystem."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.config = machine.config
        self._files: dict[str, PmFile] = {}

    # -- namespace --------------------------------------------------------

    def create(self, path: str, size: int) -> PmFile:
        """Create a PM-resident file of ``size`` bytes."""
        if path in self._files:
            raise FsError(f"file exists: {path!r}")
        self.machine.events.emit(Syscall(op="create"))
        self.machine.clock.advance(self.config.syscall_s)
        region = self.machine.alloc_pm(f"fs:{path}", size)
        f = PmFile(path, region)
        self._files[path] = f
        return f

    def open(self, path: str) -> PmFile:
        self.machine.events.emit(Syscall(op="open"))
        self.machine.clock.advance(self.config.syscall_s)
        try:
            return self._files[path]
        except KeyError:
            raise FsError(f"no such file: {path!r}") from None

    def adopt(self, path: str, region: Region) -> PmFile:
        """Name an existing PM region ``path``: remount a durable namespace.

        No syscall and no clock: the file table is itself persistent, so a
        machine powered up over a durable image (see
        :meth:`~repro.sim.machine.Machine.restore_pm`) finds it as it was.
        """
        if path in self._files:
            raise FsError(f"file exists: {path!r}")
        f = PmFile(path, region)
        self._files[path] = f
        return f

    def files(self) -> list[tuple[str, str]]:
        """``(path, region name)`` of every file, in creation order."""
        return [(path, f.region.name) for path, f in self._files.items()]

    def exists(self, path: str) -> bool:
        return path in self._files

    def unlink(self, path: str) -> None:
        f = self._files.pop(path, None)
        if f is None:
            raise FsError(f"no such file: {path!r}")
        self.machine.events.emit(Syscall(op="unlink"))
        self.machine.clock.advance(self.config.syscall_s)
        self.machine.free(f.region)

    def listdir(self) -> list[str]:
        return sorted(self._files)

    # -- CAP-fs data path ---------------------------------------------------

    def write(self, f: PmFile, offset: int, data) -> float:
        """``write()`` syscall: copy data into the DAX file (not yet durable).

        The copy runs at the single-thread persist bandwidth derated by the
        filesystem software factor; durability requires :meth:`fsync`.
        """
        data = np.asarray(data, dtype=np.uint8).ravel()
        self.machine.events.emit(Syscall(op="write"))
        f.region.write_from(offset, data)
        self.machine.cpu_store_arrival(f.region, offset, data.size)
        f._mark_dirty(offset, data.size)
        elapsed = self.config.syscall_s + data.size / self.config.cpu_memcpy_bw_single
        self.machine.clock.advance(elapsed)
        return elapsed

    def fsync(self, f: PmFile) -> float:
        """``fsync()``: make all written data durable.

        Pays the syscall, the flush-grain media drain of the dirty span, and
        the filesystem software derate on the persist bandwidth.
        """
        self.machine.events.emit(Syscall(op="fsync"))
        span = f._take_dirty()
        elapsed = self.config.syscall_s
        if span is not None:
            offset, size = span
            media = self.machine.optane.write_flush_grain(
                f.region, offset, size, grain=self.config.cpu_cache_line_bytes
            )
            self.machine.llc.drop_range(f.region, offset, size)
            sw = size / (self.config.cpu_persist_bw_single / self.config.fs_bw_derate)
            elapsed += max(media, sw)
            self.machine.events.emit(CpuPmWrite(nbytes=size))
        self.machine.clock.advance(elapsed)
        return elapsed
