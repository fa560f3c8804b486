"""SRAD: speckle-reducing anisotropic diffusion with native persistence.

From Rodinia via Chai [25]: SRAD removes locally correlated noise
(speckle) from ultrasonic/radar images by iterative anisotropic diffusion.
Each iteration computes a per-pixel diffusion coefficient from local
gradients and the ROI statistics, then diffuses the image.

Table 1: the diffusion coefficient matrix and output image are persisted
per pixel ("diffuse noise per pixel"); Section 6.1 notes SRAD's PM writes
are "streaming but not necessarily aligned", which is why its PCIe
bandwidth sits mid-range in Fig. 12 - our PM layout deliberately offsets
the planes off the 256 B XPLine boundary to preserve that behaviour.

The diffusion math is the genuine SRAD update (Yu & Acton); persistence
follows the native pattern: every pixel's coefficient and new intensity
are stored and fenced in-kernel, followed by a durable iteration counter.
Each run creates its PM state fresh and filters from the noisy input; the
counter records how far the durable image has progressed, but no resume
path reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.warp import vectorized_for
from .base import Category, Mode, ModeDriver, RunResult, make_system, measure
from .hostmemo import HostTrajectory

_HEADER_BYTES = 128
#: Extra offset that knocks the image/coefficient planes off XPLine
#: alignment (the "streaming but not aligned" pattern of Section 6.1).
_MISALIGN = 64
_BLOCK_DIM = 128


def srad_iteration(img: np.ndarray, lam: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """One SRAD step; returns (new image, diffusion coefficients)."""
    mean = img.mean()
    var = img.var()
    q0_sq = var / (mean * mean + 1e-12)

    n = np.roll(img, 1, axis=0) - img
    s = np.roll(img, -1, axis=0) - img
    w = np.roll(img, 1, axis=1) - img
    e = np.roll(img, -1, axis=1) - img
    # reflective boundaries
    n[0, :] = 0.0
    s[-1, :] = 0.0
    w[:, 0] = 0.0
    e[:, -1] = 0.0

    g2 = (n ** 2 + s ** 2 + w ** 2 + e ** 2) / (img ** 2 + 1e-12)
    l = (n + s + w + e) / (img + 1e-12)
    num = 0.5 * g2 - (1.0 / 16.0) * (l ** 2)
    den = (1.0 + 0.25 * l) ** 2
    q_sq = num / (den + 1e-12)
    c = 1.0 / (1.0 + (q_sq - q0_sq) / (q0_sq * (1.0 + q0_sq) + 1e-12))
    c = np.clip(c, 0.0, 1.0)

    c_s = np.roll(c, -1, axis=0)
    c_e = np.roll(c, -1, axis=1)
    c_s[-1, :] = c[-1, :]
    c_e[:, -1] = c[:, -1]
    d = c * n + c_s * s + c * w + c_e * e
    return img + (lam / 4.0) * d, c.astype(np.float32)


def srad_plane_kernel(ctx, state, base_off, vals, n_px, ops_per_px,
                      persist_on):
    """Store one pixel of one output plane (native per-pixel persistence).

    The intensity launch charges each pixel's stencil arithmetic (~40 ops,
    the Rodinia kernel's cost); the coefficient launch only streams.  One
    launch per plane keeps each plane's warp drains address-sequential on
    the media - the "streaming but not necessarily aligned" pattern of
    Section 6.1.
    """
    i = ctx.global_id
    if i >= n_px:
        return
    if ops_per_px:
        ctx.charge_ops(ops_per_px)
    ctx.store(state, base_off + i * 4, np.float32(vals[i]), np.float32)
    if persist_on:
        ctx.persist()


@vectorized_for(srad_plane_kernel)
def srad_plane_kernel_warp(wctx, state, base_off, vals, n_px, ops_per_px,
                           persist_on):
    g = wctx.global_ids
    if int(g[-1]) < n_px:
        # Full warp in range (all but the grid's tail warp): no masking,
        # and the lane ids are one contiguous run - slice the value plane
        # and assert the store coalesced.
        if ops_per_px:
            wctx.charge_ops(ops_per_px * g.size)
        wctx.store(state, base_off + g * 4, vals[int(g[0]):int(g[-1]) + 1],
                   np.float32, coalesced=True)
        if persist_on:
            wctx.persist()
        return
    sel = wctx.active(g < n_px)
    if sel.size == 0:
        return
    gs = g[sel]
    if ops_per_px:
        wctx.charge_ops(ops_per_px * gs.size)
    wctx.store(state, base_off + gs * 4, vals[gs].astype(np.float32),
               np.float32, lanes=sel)
    if persist_on:
        wctx.persist(sel)


@dataclass
class SradConfig:
    """Scaled SRAD (paper: 128K x 1K plane, 3 GB)."""

    n: int = 192
    iterations: int = 6
    lam: float = 0.5
    seed: int = 23


class Srad:
    """The SRAD workload runner."""

    name = "SRAD"
    category = Category.NATIVE
    fine_grained = False  # coarse per-plane writes: the one native workload GPUfs runs
    paper_data_bytes = 1_000_000_000  # coefficient+output planes persisted per iteration

    def __init__(self, config: SradConfig | None = None) -> None:
        self.config = config or SradConfig()

    def _plane_bytes(self) -> int:
        return self.config.n * self.config.n * 4

    def _img_off(self) -> int:
        return _HEADER_BYTES + _MISALIGN

    def _coef_off(self) -> int:
        return self._img_off() + self._plane_bytes()

    def _buffer_bytes(self) -> int:
        return self._coef_off() + self._plane_bytes() + 256

    def run(self, mode: Mode, system=None) -> RunResult:
        cfg = self.config
        system = system or make_system(mode)
        driver = ModeDriver(system, mode)
        rng = np.random.default_rng(cfg.seed)
        base = rng.uniform(0.2, 1.0, size=(cfg.n, cfg.n))
        speckle = rng.normal(0, 0.15, size=(cfg.n, cfg.n))
        img = (base * np.exp(speckle)).astype(np.float64)
        self._noisy = img.copy()
        buf = driver.buffer("/pm/srad.state", self._buffer_bytes(),
                            fine_grained=self.fine_grained,
                            paper_bytes=self.paper_data_bytes)
        self._state = (system, driver, buf)
        trajectory = HostTrajectory(self.name, img, cfg.lam)

        def diffuse():
            driver.persist_phase_begin()
            try:
                return _iterate()
            finally:
                driver.persist_phase_end()

        def _iterate():
            cur = img
            n_px = cfg.n * cfg.n
            grid = (n_px + _BLOCK_DIM - 1) // _BLOCK_DIM
            for it in range(cfg.iterations):
                cur, coef = trajectory.step(
                    it, lambda cur=cur: srad_iteration(cur, cfg.lam))
                # Native persistence: every pixel's new intensity and
                # coefficient is stored + fenced from the kernel (one
                # launch per plane, keeping each drain stream sequential).
                for base_off, vals, ops in (
                    (self._img_off(), cur.astype(np.float32).ravel(), 40),
                    (self._coef_off(), coef.ravel(), 0),
                ):
                    res = system.gpu.launch(
                        srad_plane_kernel, grid, _BLOCK_DIM,
                        (buf.kernel_region, base_off, vals, n_px, ops,
                         driver.mode.data_on_pm),
                    )
                    self._last_lane = res.lane
                if not driver.mode.in_kernel_persist:
                    buf.persist_all()
                # Durable iteration counter: how far the durable image got.
                buf.visible_view(np.uint32, 0, 1)[0] = it + 1
                if driver.mode.in_kernel_persist:
                    system.gpu.store_and_persist_value(buf.kernel_region, 0,
                                                       it + 1, np.uint32)
                elif driver.mode is Mode.GPM_NDP:
                    system.cpu.persist_range(buf.kernel_region, 0, 4)
                else:
                    buf.persist_range(0, 4)
            self._result = cur
            return cfg.iterations

        iters, window = measure(system, diffuse)
        return RunResult(
            workload=self.name, mode=mode, elapsed=window.elapsed, window=window,
            extras={"iterations": iters, "pixels": cfg.n * cfg.n},
        )

    def verify(self) -> bool:
        """The filter must smooth: output variance strictly below input's."""
        sys_, driver, buf = self._state
        out = buf.visible_view(np.float32, self._img_off(),
                               self.config.n * self.config.n)
        ref = self._result.astype(np.float32).ravel()
        return bool(np.allclose(out, ref) and out.var() < self._noisy.var())
