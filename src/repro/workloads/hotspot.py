"""Hotspot: thermal simulation with checkpointed temperatures (Section 4.2).

From Rodinia [15]: iteratively solve the chip temperature field from a
power-density map using the standard Hotspot finite-difference update, and
checkpoint the estimated temperatures to PM (Table 1: 16K x 16K grids, 2 GB;
scaled here to 256 x 256).

The stencil is the real Rodinia update rule: each cell's temperature moves
toward its neighbours and the ambient according to the thermal RC
constants.
"""

from __future__ import annotations

import numpy as np

from ..gpu.memory import DeviceArray
from .checkpointed import CheckpointedWorkload
from .hostmemo import HostTrajectory

# Rodinia hotspot constants (scaled chip, arbitrary-but-physical units).
AMB_TEMP = 80.0
CAP = 0.5
RX, RY, RZ = 1.0, 1.0, 4.0


class HotspotGrid:
    """The finite-difference temperature solver."""

    def __init__(self, n: int = 256, seed: int = 13) -> None:
        rng = np.random.default_rng(seed)
        self.n = n
        self.temp = np.full((n, n), AMB_TEMP, dtype=np.float64)
        self.power = rng.uniform(0.0, 1.0, size=(n, n))
        # a few hot functional units
        for _ in range(6):
            r, c = rng.integers(0, n - n // 8, size=2)
            self.power[r : r + n // 8, c : c + n // 8] += 4.0

    def step(self) -> None:
        t = np.pad(self.temp, 1, mode="edge")
        center = t[1:-1, 1:-1]
        dtemp = (
            self.power
            + (t[2:, 1:-1] + t[:-2, 1:-1] - 2.0 * center) / RY
            + (t[1:-1, 2:] + t[1:-1, :-2] - 2.0 * center) / RX
            + (AMB_TEMP - center) / RZ
        ) / CAP
        self.temp = center + 0.01 * dtemp

    def flops_per_step(self) -> int:
        return 15 * self.n * self.n


class Hotspot(CheckpointedWorkload):
    """The HS workload: stencil solve + temperature checkpoints."""

    name = "HS"
    paper_data_bytes = 2 * 1024 * 1024 * 1024 + 1  # Table 1: 2 GB (fails on GPUfs)
    iterations = 12
    checkpoint_every = 3

    def __init__(self, n: int = 256, steps_per_iteration: int = 4) -> None:
        self.n = n
        self.steps_per_iteration = steps_per_iteration
        self.grid: HotspotGrid | None = None

    def setup(self, system) -> list[DeviceArray]:
        self.grid = HotspotGrid(self.n)
        self._trajectory = HostTrajectory(self.name, self.grid.temp, self.grid.power,
                                          self.steps_per_iteration)
        nbytes = self.n * self.n * 4
        hbm = system.machine.alloc_hbm("hs.temp", nbytes)
        self._payload = DeviceArray(hbm, np.float32, 0, nbytes // 4)
        self._sync()
        return [self._payload]

    def _sync(self) -> None:
        self._payload.np[:] = self.grid.temp.astype(np.float32).ravel()

    def _solve(self) -> tuple[np.ndarray, int]:
        flops = 0
        for _ in range(self.steps_per_iteration):
            self.grid.step()
            flops += self.grid.flops_per_step()
        return self.grid.temp, flops

    def compute_iteration(self, system, iteration: int) -> None:
        self.grid.temp, flops = self._trajectory.step(iteration, self._solve)
        self._sync()
        system.gpu.compute(flops)
