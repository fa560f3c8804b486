"""Black-Scholes option pricing with checkpointed results (Section 4.2).

From the CUDA SDK samples [70]: price a large portfolio of European call
and put options with the closed-form Black-Scholes model, checkpointing the
predicted prices for fault tolerance (Table 1: 256M options, 4 GB; here
scaled to 256K options / 2 MB of prices).

The pricing maths is exact (vectorised erf-based normal CDF); each
iteration re-prices a slice of the portfolio at a shifted volatility, as a
stand-in for the streaming batches of the original sample.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from ..gpu.memory import DeviceArray
from .checkpointed import CheckpointedWorkload
from .hostmemo import HostTrajectory


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def black_scholes(spot, strike, t, rate, vol):
    """Closed-form European call and put prices."""
    sqrt_t = np.sqrt(t)
    d1 = (np.log(spot / strike) + (rate + 0.5 * vol * vol) * t) / (vol * sqrt_t)
    d2 = d1 - vol * sqrt_t
    discount = np.exp(-rate * t)
    # N(-x) = 1 - N(x): two erf evaluations price both legs, and put-call
    # parity (call - put = spot - strike*discount) holds exactly.
    n_d1 = _norm_cdf(d1)
    n_d2 = _norm_cdf(d2)
    disc_k = strike * discount
    call = spot * n_d1 - disc_k * n_d2
    put = disc_k * (1.0 - n_d2) - spot * (1.0 - n_d1)
    return call, put


class BlackScholes(CheckpointedWorkload):
    """The BLK workload: batched pricing + price checkpoints."""

    name = "BLK"
    paper_data_bytes = 4_000_000_000  # Table 1: 4 GB (fails on GPUfs)
    iterations = 10
    checkpoint_every = 2

    def __init__(self, n_options: int = 262_144, seed: int = 9) -> None:
        self.n_options = n_options
        self.seed = seed

    def setup(self, system) -> list[DeviceArray]:
        rng = np.random.default_rng(self.seed)
        n = self.n_options
        self.spot = rng.uniform(5.0, 30.0, n)
        self.strike = rng.uniform(1.0, 100.0, n)
        self.t = rng.uniform(0.25, 10.0, n)
        self.rate = 0.02
        self.vol = 0.30
        self._trajectory = HostTrajectory(self.name, self.spot, self.strike, self.t,
                                          self.rate, self.vol)
        nbytes = 2 * n * 4  # call + put prices, float32
        hbm = system.machine.alloc_hbm("blk.prices", nbytes)
        self._prices = DeviceArray(hbm, np.float32, 0, 2 * n)
        return [self._prices]

    def compute_iteration(self, system, iteration: int) -> None:
        # Re-price one slice of the portfolio at a drifted volatility.
        n = self.n_options
        slices = 4
        lo = (iteration % slices) * n // slices
        hi = lo + n // slices

        def price() -> tuple[np.ndarray, np.ndarray]:
            vol = self.vol * (1.0 + 0.01 * iteration)
            call, put = black_scholes(self.spot[lo:hi], self.strike[lo:hi],
                                      self.t[lo:hi], self.rate, vol)
            return call.astype(np.float32), put.astype(np.float32)

        call, put = self._trajectory.step(iteration, price)
        self._prices.np[lo:hi] = call
        self._prices.np[n + lo : n + hi] = put
        system.gpu.compute(60 * (hi - lo))  # ~flops of the closed form
