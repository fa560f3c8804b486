"""Memory regions of the simulated machine.

A :class:`Region` is a contiguous, byte-addressable allocation living on one
of the machine's three memory devices:

* ``HBM``  - the GPU's on-board GDDR6 (volatile, fast, local to the GPU),
* ``DRAM`` - host DDR4 (volatile, behind the PCIe link from the GPU),
* ``PM``   - Optane persistent memory (behind the PCIe link, *persistent*).

Crash consistency is modelled functionally with **two images** for PM
regions:

* ``visible``   - the latest value of every byte, as seen by coherent
  readers.  All stores update it immediately.
* ``persisted`` - the bytes that have actually reached the persistence
  domain (the Optane media / ADR-protected write-pending queue).

A store becomes persistent only when something moves it from ``visible`` to
``persisted``: a CPU cache-line flush, a non-temporal store, an LLC eviction,
or - the paper's contribution - a GPU system-scope fence with DDIO disabled.
On a simulated crash the ``visible`` image is discarded and rebuilt from
``persisted``, so missing flushes/fences produce *real* data loss that the
recovery tests can observe.

Volatile regions have only a ``visible`` image, which is poisoned on crash.
"""

from __future__ import annotations

import enum
import itertools
from operator import add

import numpy as np

from repro.sim import bulk

#: Byte used to fill volatile regions after a crash, so stale reads are
#: detectable in tests rather than silently returning pre-crash data.
CRASH_POISON = 0xCD


class MemKind(enum.Enum):
    """Which physical device a region lives on."""

    HBM = "hbm"
    DRAM = "dram"
    PM = "pm"


class Region:
    """A contiguous allocation on one memory device.

    Data is held in numpy ``uint8`` arrays; use :meth:`view` for typed
    access.  Regions are created through :class:`~repro.sim.machine.Machine`
    allocation helpers (or :func:`repro.core.mapping.gpm_map` for PM), not
    directly.
    """

    #: Monotonic identity tokens.  Unlike ``id()``, a token is never reused
    #: after a region is freed, so stream-tracking consumers (e.g. the
    #: Optane sequentiality heuristic) cannot alias a dead region with a
    #: new allocation that happens to land at the same address.
    _tokens = itertools.count(1)

    def __init__(self, name: str, size: int, kind: MemKind) -> None:
        if size <= 0:
            raise ValueError(f"region size must be positive, got {size}")
        self.name = name
        self.size = size
        self.kind = kind
        self.token = next(Region._tokens)
        self.visible = np.zeros(size, dtype=np.uint8)
        self.persisted = np.zeros(size, dtype=np.uint8) if kind is MemKind.PM else None
        #: Set when a crash wiped this (volatile) region's contents.
        self.lost = False
        #: Bumped by every call that writes ``persisted``, so an observer
        #: can tell that the persisted image is unchanged without reading it.
        self.persist_gen = 0

    # -- typed access ---------------------------------------------------

    def view(self, dtype, offset: int = 0, count: int | None = None) -> np.ndarray:
        """A typed numpy view of the *visible* image.

        Mutating the view is equivalent to issuing stores without any
        persistence guarantee; simulated components that must account for
        traffic and persistence go through the machine/GPU/CPU interfaces
        instead.
        """
        dtype = np.dtype(dtype)
        end = self.size if count is None else offset + count * dtype.itemsize
        self._check_range(offset, end - offset)
        return self.visible[offset:end].view(dtype)

    def persisted_view(self, dtype, offset: int = 0, count: int | None = None) -> np.ndarray:
        """A typed view of the *persisted* image (PM regions only)."""
        if self.persisted is None:
            raise TypeError(f"region {self.name!r} is volatile and has no persisted image")
        dtype = np.dtype(dtype)
        end = self.size if count is None else offset + count * dtype.itemsize
        self._check_range(offset, end - offset)
        return self.persisted[offset:end].view(dtype)

    # -- raw byte access ------------------------------------------------

    def read_bytes(self, offset: int, size: int) -> np.ndarray:
        self._check_range(offset, size)
        return self.visible[offset : offset + size]

    def write_bytes(self, offset: int, data) -> None:
        data = np.asarray(data, dtype=np.uint8)
        self._check_range(offset, data.size)
        self.visible[offset : offset + data.size] = data

    def write_from(self, offset: int, src: np.ndarray) -> None:
        """Copy a ready uint8 view straight into ``visible`` (one copy).

        Fast-path sibling of :meth:`write_bytes` for callers that already
        hold a contiguous uint8 view (the bulk-transfer paths): skips the
        ``asarray`` conversion and lowers to ``np.copyto``.
        """
        self._check_range(offset, src.size)
        np.copyto(self.visible[offset : offset + src.size], src)

    def fill(self, offset: int, size: int, value: int) -> None:
        """Set ``size`` visible bytes to ``value`` without a temp array."""
        self._check_range(offset, size)
        self.visible[offset : offset + size] = value

    # -- persistence plumbing (used by caches / fences / flushes) --------

    @property
    def is_persistent(self) -> bool:
        return self.kind is MemKind.PM

    @property
    def is_host(self) -> bool:
        """True when the region is in host (system) memory - DRAM or PM."""
        return self.kind is not MemKind.HBM

    def persist_range(self, offset: int, size: int) -> None:
        """Copy ``visible`` bytes into the persisted image.

        Called by the machine when a store provably reaches the persistence
        domain; not part of the public API.
        """
        if self.persisted is None:
            raise TypeError(f"cannot persist volatile region {self.name!r}")
        self._check_range(offset, size)
        self.persisted[offset : offset + size] = self.visible[offset : offset + size]
        self.persist_gen += 1

    #: Up to this many segments a plain slice loop beats building the index
    #: vector (see ``benchmarks/test_persist_ranges.py``).
    PERSIST_SLICE_THRESHOLD = 16

    def persist_ranges(self, starts: np.ndarray, lengths: np.ndarray) -> None:
        """Vectorised :meth:`persist_range` over many segments.

        Large segment counts (a warp drain round can carry thousands) are
        copied with one fancy-indexed gather/scatter instead of a Python
        loop of slice assignments.
        """
        if self.persisted is None:
            raise TypeError(f"cannot persist volatile region {self.name!r}")
        self.persist_gen += 1
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if starts.size <= self.PERSIST_SLICE_THRESHOLD:
            for start, length in zip(starts.tolist(), lengths.tolist()):
                self.persisted[start:start + length] = self.visible[start:start + length]
            return
        keep = lengths > 0
        if not keep.all():
            starts, lengths = starts[keep], lengths[keep]
        total = int(lengths.sum())
        if total == 0:
            return
        # Absolute byte index of every copied byte: position within the
        # concatenated segments, shifted per segment to its start address.
        # One fresh allocation (the repeat); the ramp is a shared cache.
        before = np.cumsum(lengths)
        before -= lengths
        np.subtract(starts, before, out=before)
        idx = np.repeat(before, lengths)
        idx += bulk.iota64(total)
        self.persisted[idx] = self.visible[idx]

    def crash(self) -> None:
        """Apply crash semantics: keep only what was persisted."""
        if self.persisted is not None:
            self.visible[:] = self.persisted
        else:
            self.visible.fill(CRASH_POISON)
            self.lost = True

    def unpersisted_bytes(self) -> int:
        """Number of bytes whose visible and persisted images differ."""
        if self.persisted is None:
            raise TypeError(f"volatile region {self.name!r} has no persisted image")
        return int(np.count_nonzero(self.visible != self.persisted))

    def check_segments(self, starts: list[int], lengths: list[int]) -> None:
        """Raise :class:`IndexError` unless every segment lies within the region."""
        if starts and (min(starts) < 0 or max(map(add, starts, lengths)) > self.size):
            raise IndexError(
                f"segments reach outside region {self.name!r} of size {self.size}"
            )

    def _check_range(self, offset: int, size: int) -> None:
        if offset < 0 or size < 0 or offset + size > self.size:
            raise IndexError(
                f"access [{offset}, {offset + size}) outside region "
                f"{self.name!r} of size {self.size}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Region({self.name!r}, size={self.size}, kind={self.kind.value})"
