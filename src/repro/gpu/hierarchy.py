"""The GPU execution hierarchy: grids, threadblocks, warps, threads.

Section 2 of the paper: work is dispatched to the GPU as a *grid* of
*threadblocks*; a threadblock's threads execute in lockstep groups of 32
called *warps*; loads/stores by a warp's threads falling on the same 128 B
block are coalesced by hardware into a single access.  HCL's log layout
(Figs. 4-5) is literally this hierarchy, so the simulator exposes it
faithfully.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class Dim3:
    """A CUDA-style 1/2/3-dimensional extent."""

    x: int = 1
    y: int = 1
    z: int = 1

    def __post_init__(self) -> None:
        if min(self.x, self.y, self.z) < 1:
            raise ValueError(f"dimensions must be >= 1, got {self}")

    @classmethod
    def of(cls, dims) -> "Dim3":
        """Coerce an integer (``int`` or numpy), a tuple or list of up to
        three, or a Dim3 into a Dim3; anything else raises TypeError."""
        if isinstance(dims, Dim3):
            return dims
        try:
            if isinstance(dims, (tuple, list)):
                return cls(*map(operator.index, dims))
            return _extent(operator.index(dims))
        except TypeError:
            raise TypeError("grid and block dimensions must be at most three "
                            f"integers, got {dims!r}") from None

    @property
    def count(self) -> int:
        return self.x * self.y * self.z

    def flatten(self, x: int, y: int, z: int) -> int:
        """Linearise coordinates in CUDA order (x fastest)."""
        return (z * self.y + y) * self.x + x

    def unflatten(self, flat: int) -> tuple[int, int, int]:
        x = flat % self.x
        y = (flat // self.x) % self.y
        z = flat // (self.x * self.y)
        return x, y, z

    def __iter__(self):
        return iter((self.x, self.y, self.z))


@functools.lru_cache(maxsize=64)
def _extent(count: int) -> Dim3:
    """The 1-D extent ``count``, shared by every launch of that size."""
    return Dim3(count)


@dataclass(frozen=True)
class ThreadId:
    """Full identity of one simulated GPU thread."""

    grid_dim: Dim3
    block_dim: Dim3
    block_flat: int
    thread_flat: int
    warp_size: int = 32

    @property
    def global_id(self) -> int:
        """Flat global thread index across the grid."""
        return self.block_flat * self.block_dim.count + self.thread_flat

    @property
    def lane(self) -> int:
        """Position within the warp (0..warp_size-1)."""
        return self.thread_flat % self.warp_size

    @property
    def warp_in_block(self) -> int:
        return self.thread_flat // self.warp_size

    @property
    def warp_global(self) -> int:
        """Flat warp index across the grid."""
        warps_per_block = (self.block_dim.count + self.warp_size - 1) // self.warp_size
        return self.block_flat * warps_per_block + self.warp_in_block

    @property
    def thread_idx(self) -> tuple[int, int, int]:
        return self.block_dim.unflatten(self.thread_flat)

    @property
    def block_idx(self) -> tuple[int, int, int]:
        return self.grid_dim.unflatten(self.block_flat)


def warps_in_block(block_dim: Dim3, warp_size: int = 32) -> int:
    return (block_dim.count + warp_size - 1) // warp_size


def warps_in_grid(grid_dim: Dim3, block_dim: Dim3, warp_size: int = 32) -> int:
    return grid_dim.count * warps_in_block(block_dim, warp_size)
