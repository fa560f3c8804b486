"""Typed array views over simulated memory regions.

Workload kernels overwhelmingly address memory as typed arrays; a
:class:`DeviceArray` binds (region, dtype, offset, count) and offers both
*metered* element access from inside kernels (through a
:class:`~repro.gpu.kernel.ThreadContext`) and *unmetered* numpy views for
host-side setup and test verification.
"""

from __future__ import annotations

import numpy as np

from ..sim.memory import Region
from .kernel import ThreadContext


class DeviceArray:
    """A typed window into a region, usable from kernels and host code."""

    def __init__(self, region: Region, dtype, offset: int = 0, count: int | None = None) -> None:
        self.region = region
        self.dtype = np.dtype(dtype)
        self.offset = offset
        max_count = (region.size - offset) // self.dtype.itemsize
        self.count = max_count if count is None else count
        if self.count < 0 or self.count > max_count:
            raise ValueError(
                f"count {count} does not fit region {region.name!r} at offset {offset}"
            )

    # -- layout ----------------------------------------------------------

    def byte_offset(self, index: int) -> int:
        """Byte address within the region of element ``index``."""
        if index < 0 or index >= self.count:
            raise IndexError(f"index {index} out of range [0, {self.count})")
        return self.offset + index * self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        return self.count * self.dtype.itemsize

    def __len__(self) -> int:
        return self.count

    # -- metered (in-kernel) access ---------------------------------------

    def read(self, ctx: ThreadContext, index: int):
        """Load one element from inside a kernel."""
        return ctx.load(self.region, self.byte_offset(index), self.dtype)

    def write(self, ctx: ThreadContext, index: int, value) -> None:
        """Store one element from inside a kernel."""
        ctx.store(self.region, self.byte_offset(index), value, self.dtype)

    def read_vec(self, ctx: ThreadContext, index: int, n: int) -> np.ndarray:
        """Load ``n`` consecutive elements."""
        return ctx.load(self.region, self.byte_offset(index), self.dtype, count=n)

    def write_vec(self, ctx: ThreadContext, index: int, values) -> None:
        """Store consecutive elements starting at ``index``."""
        values = np.asarray(values, dtype=self.dtype)
        if index + values.size > self.count:
            raise IndexError("vector store overruns array")
        ctx.store(self.region, self.byte_offset(index), values, self.dtype)

    # -- metered warp-level (vectorized lane) access ------------------------

    def _byte_offsets(self, indices) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (int(indices.min()) < 0
                             or int(indices.max()) >= self.count):
            raise IndexError(f"warp indices out of range [0, {self.count})")
        # One fresh array (drain buffers may retain it), built in place.
        out = indices * self.dtype.itemsize
        out += self.offset
        return out

    def read_uniform_warp(self, wctx, index: int, lanes=None):
        """All participating lanes load the same element (broadcast read)."""
        return wctx.load_uniform(self.region, self.byte_offset(index),
                                 self.dtype, lanes=lanes)

    def read_warp(self, wctx, indices, lanes=None) -> np.ndarray:
        """Per-lane loads of one element each (vectorized lane)."""
        return wctx.load(self.region, self._byte_offsets(indices), self.dtype,
                         lanes=lanes)

    def read_vec_warp(self, wctx, indices, n: int, lanes=None) -> np.ndarray:
        """Per-lane loads of ``n`` consecutive elements each."""
        return wctx.load(self.region, self._byte_offsets(indices), self.dtype,
                         count=n, lanes=lanes)

    def write_warp(self, wctx, indices, values, lanes=None) -> None:
        """Per-lane stores of one element each (vectorized lane)."""
        wctx.store(self.region, self._byte_offsets(indices), values,
                   self.dtype, lanes=lanes)

    def _byte_offsets_ragged(self, indices, counts) -> tuple[np.ndarray, np.ndarray]:
        indices = np.asarray(indices, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if indices.size and (int(indices.min()) < 0
                             or int((indices + counts).max()) > self.count):
            raise IndexError(f"warp segments out of range [0, {self.count})")
        out = indices * self.dtype.itemsize
        out += self.offset
        return out, counts

    def read_gather_warp(self, wctx, indices, counts, lanes=None) -> np.ndarray:
        """Ragged per-lane loads: lane ``j`` reads ``counts[j]`` elements
        starting at ``indices[j]``; returns their flat concatenation."""
        offsets, counts = self._byte_offsets_ragged(indices, counts)
        return wctx.load_gather(self.region, offsets, counts, self.dtype,
                                lanes=lanes)

    def write_vec_warp(self, wctx, indices, values, lanes=None) -> None:
        """Per-lane stores of one fixed-width vector each: ``values`` is
        ``(k, n)``; lane ``j`` writes row ``j`` at ``indices[j]``."""
        values = np.asarray(values, dtype=self.dtype)
        n = values.shape[-1] if values.ndim > 1 else 1
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (int(indices.min()) < 0
                             or int(indices.max()) + n > self.count):
            raise IndexError("warp vector store overruns array")
        wctx.store(self.region,
                   self.offset + indices * self.dtype.itemsize,
                   values, self.dtype, lanes=lanes)

    def atomic_add(self, ctx: ThreadContext, index: int, value):
        return ctx.atomic_add(self.region, self.byte_offset(index), value, self.dtype)

    def atomic_cas(self, ctx: ThreadContext, index: int, expected, desired):
        return ctx.atomic_cas(self.region, self.byte_offset(index), expected, desired, self.dtype)

    def atomic_max(self, ctx: ThreadContext, index: int, value):
        return ctx.atomic_max(self.region, self.byte_offset(index), value, self.dtype)

    # -- unmetered host-side access ----------------------------------------

    @property
    def np(self) -> np.ndarray:
        """Unmetered numpy view of the visible image (setup/verification)."""
        return self.region.view(self.dtype, self.offset, self.count)

    @property
    def np_persisted(self) -> np.ndarray:
        """Unmetered view of the persisted image (PM regions only)."""
        return self.region.persisted_view(self.dtype, self.offset, self.count)
