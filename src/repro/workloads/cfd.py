"""CFD: an Euler-equation grid solver with periodic checkpoints.

The paper draws its CFD workload from Rodinia's ``euler3d`` - "a grid solver
for Euler equation for inviscid and compression flow. The flux, momentum,
and density are computed over many timesteps. We periodically checkpoint
these to PM" (Section 4.2).

We implement a genuine (if smaller) finite-volume solver: 2-D compressible
Euler equations on a structured grid with Rusanov (local Lax-Friedrichs)
fluxes and reflective boundaries, evolving a blast-wave initial condition.
The checkpointed payload is the full conserved state - density, x/y
momentum, and energy - as in Table 1.
"""

from __future__ import annotations

import numpy as np

from ..gpu.memory import DeviceArray
from .checkpointed import CheckpointedWorkload
from .hostmemo import HostTrajectory

GAMMA = 1.4


def _pressure(rho, mx, my, e):
    return (GAMMA - 1.0) * (e - 0.5 * (mx ** 2 + my ** 2) / rho)


def _flux_x(rho, mx, my, e, p):
    u = mx / rho
    return np.stack([mx, mx * u + p, my * u, (e + p) * u])


def _flux_y(rho, mx, my, e, p):
    v = my / rho
    return np.stack([my, mx * v, my * v + p, (e + p) * v])


def _rusanov(ul, ur, flux, axis_mom):
    """Rusanov flux between left/right states (stacked [rho,mx,my,e])."""
    pl = _pressure(*ul)
    pr = _pressure(*ur)
    fl = flux(*ul, pl)
    fr = flux(*ur, pr)
    cl = np.sqrt(GAMMA * pl / ul[0]) + np.abs(ul[axis_mom] / ul[0])
    cr = np.sqrt(GAMMA * pr / ur[0]) + np.abs(ur[axis_mom] / ur[0])
    smax = np.maximum(cl, cr)
    return 0.5 * (fl + fr) - 0.5 * smax * (ur - ul)


class EulerSolver:
    """2-D compressible Euler on an n x n grid, blast-wave initial state."""

    def __init__(self, n: int = 96, cfl: float = 0.4) -> None:
        self.n = n
        self.cfl = cfl
        self.state = np.zeros((4, n, n), dtype=np.float64)
        rho = np.ones((n, n))
        p = np.full((n, n), 0.1)
        yy, xx = np.mgrid[0:n, 0:n]
        inside = (xx - n / 2) ** 2 + (yy - n / 2) ** 2 < (n / 8) ** 2
        p[inside] = 1.0
        self.state[0] = rho
        self.state[3] = p / (GAMMA - 1.0)
        self.dx = 1.0 / n

    def step(self) -> float:
        """One finite-volume timestep; returns dt."""
        s = self.state
        rho, mx, my, e = s
        p = _pressure(rho, mx, my, e)
        c = np.sqrt(GAMMA * np.maximum(p, 1e-12) / rho)
        speed = c + np.sqrt((mx ** 2 + my ** 2)) / rho
        dt = self.cfl * self.dx / max(float(speed.max()), 1e-12)

        # Reflective ghost padding.
        pad = np.pad(s, ((0, 0), (1, 1), (1, 1)), mode="edge")
        pad[1, 0, :] *= -1
        pad[1, -1, :] *= -1
        pad[2, :, 0] *= -1
        pad[2, :, -1] *= -1

        fx = _rusanov(pad[:, 1:-1, :-1], pad[:, 1:-1, 1:], _flux_x, 1)
        fy = _rusanov(pad[:, :-1, 1:-1], pad[:, 1:, 1:-1], _flux_y, 2)
        div = (fx[:, :, 1:] - fx[:, :, :-1]) / self.dx + (fy[:, 1:, :] - fy[:, :-1, :]) / self.dx
        self.state = s - dt * div
        # Keep density/energy physical under the large blast gradients.
        self.state[0] = np.maximum(self.state[0], 1e-6)
        self.state[3] = np.maximum(self.state[3], 1e-6)
        return dt

    def flops_per_step(self) -> int:
        return 120 * self.n * self.n  # ~ops of two flux sweeps + update

    def total_mass(self) -> float:
        return float(self.state[0].sum())


class CfdSolver(CheckpointedWorkload):
    """The CFD workload: Euler solver + state checkpoints."""

    name = "CFD"
    paper_data_bytes = 8_900_000  # Table 1: 8.9 MB (missile surface)
    iterations = 12
    checkpoint_every = 3

    def __init__(self, n: int = 96, steps_per_iteration: int = 2) -> None:
        self.n = n
        self.steps_per_iteration = steps_per_iteration
        self.solver: EulerSolver | None = None

    def setup(self, system) -> list[DeviceArray]:
        self.solver = EulerSolver(self.n)
        self._trajectory = HostTrajectory(self.name, self.solver.state, self.solver.cfl,
                                          self.solver.dx, self.steps_per_iteration)
        nbytes = self.solver.state.astype(np.float32).nbytes
        hbm = system.machine.alloc_hbm("cfd.state", nbytes)
        self._payload = DeviceArray(hbm, np.float32, 0, nbytes // 4)
        self._sync()
        return [self._payload]

    def _sync(self) -> None:
        self._payload.np[:] = self.solver.state.astype(np.float32).ravel()

    def _solve(self) -> tuple[np.ndarray, int]:
        flops = 0
        for _ in range(self.steps_per_iteration):
            self.solver.step()
            flops += self.solver.flops_per_step()
        return self.solver.state, flops

    def compute_iteration(self, system, iteration: int) -> None:
        self.solver.state, flops = self._trajectory.step(iteration, self._solve)
        self._sync()
        system.gpu.compute(flops)
