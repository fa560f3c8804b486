"""Prefix sum with native persistence - the kernel of Fig. 8.

Each threadblock owns one subarray; each thread persists the prefix sum of
its element, then the block synchronises, and only then does the *last*
thread persist its value.  That ordering is the workload's entire recovery
protocol: "after a crash, if a value is present in the array for the last
thread, then all the threads would have had their values persisted" - so a
re-run simply skips completed blocks (line 3 of Fig. 8) and recomputes the
rest.

A second kernel folds the per-block totals into final sums, with the same
last-thread sentinel discipline on the output array.

Inputs are strictly positive integers so 0 can serve as the EMPTY sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.memory import DeviceArray
from ..gpu.warp import vectorized_for
from .base import (
    Category,
    CrashConsistent,
    Mode,
    ModeDriver,
    RunResult,
    make_system,
    measure,
)

EMPTY = 0
_HEADER_BYTES = 128


def partial_sums_kernel(ctx, inp, pm_p_sums, persist_on):
    """The Fig. 8 kernel: block-local prefix sums with ordered persists."""
    blk = ctx.block_id
    bdim = ctx.block_dim
    last_idx = (blk + 1) * bdim - 1
    # Partial sum of last thread in block exists -> whole block done, skip.
    if int(pm_p_sums.read(ctx, last_idx)) != EMPTY:
        return
    shared = ctx.shared
    if "prefix" not in shared:
        # One cooperative scan per block (charged as log-steps per thread).
        vals = inp.read_vec(ctx, blk * bdim, bdim)
        shared["prefix"] = np.cumsum(np.asarray(vals, dtype=np.int64))
        ctx.charge_ops(bdim)
    my = int(shared["prefix"][ctx.thread_in_block])
    ctx.charge_ops(10)
    if ctx.thread_in_block != bdim - 1:
        # All but the last thread persist their partial sum first.
        pm_p_sums.write(ctx, ctx.global_id, my)
        if persist_on:
            ctx.persist()
    yield  # __syncthreads(): everyone's value is durable before the sentinel
    if ctx.thread_in_block == bdim - 1:
        pm_p_sums.write(ctx, ctx.global_id, my)
        if persist_on:
            ctx.persist()


@vectorized_for(partial_sums_kernel)
def partial_sums_warp(wctx, inp, pm_p_sums, persist_on):
    """Warp-vectorized Fig. 8 kernel; accounting matches the scalar body."""
    blk = wctx.block_id
    bdim = wctx.block_dim
    last_idx = (blk + 1) * bdim - 1
    if int(pm_p_sums.read_uniform_warp(wctx, last_idx)) != EMPTY:
        return
    shared = wctx.shared
    if "prefix" not in shared:
        vals = inp.read_vec_warp(wctx, [blk * bdim], bdim)[0]
        shared["prefix"] = np.cumsum(np.asarray(vals, dtype=np.int64))
        wctx.charge_ops(bdim)
    my = shared["prefix"][wctx.thread_flats]
    wctx.charge_ops(10 * wctx.n)
    rest = wctx.thread_flats != bdim - 1
    if rest.any():
        pm_p_sums.write_warp(wctx, wctx.global_ids[rest], my[rest], lanes=rest)
        if persist_on:
            wctx.persist(rest)
    yield  # __syncthreads()
    last = ~rest
    if last.any():
        pm_p_sums.write_warp(wctx, wctx.global_ids[last], my[last], lanes=last)
        if persist_on:
            wctx.persist(last)


def final_sums_kernel(ctx, pm_p_sums, block_offsets, pm_out, persist_on):
    """Fold block offsets into final sums, same sentinel ordering."""
    blk = ctx.block_id
    bdim = ctx.block_dim
    last_idx = (blk + 1) * bdim - 1
    if int(pm_out.read(ctx, last_idx)) != EMPTY:
        return
    offset = int(block_offsets.read(ctx, blk))
    mine = int(pm_p_sums.read(ctx, ctx.global_id)) + offset
    ctx.charge_ops(4)
    if ctx.thread_in_block != bdim - 1:
        pm_out.write(ctx, ctx.global_id, mine)
        if persist_on:
            ctx.persist()
    yield
    if ctx.thread_in_block == bdim - 1:
        pm_out.write(ctx, ctx.global_id, mine)
        if persist_on:
            ctx.persist()


@vectorized_for(final_sums_kernel)
def final_sums_warp(wctx, pm_p_sums, block_offsets, pm_out, persist_on):
    blk = wctx.block_id
    bdim = wctx.block_dim
    last_idx = (blk + 1) * bdim - 1
    if int(pm_out.read_uniform_warp(wctx, last_idx)) != EMPTY:
        return
    offset = int(block_offsets.read_uniform_warp(wctx, blk))
    mine = pm_p_sums.read_warp(wctx, wctx.global_ids) + offset
    wctx.charge_ops(4 * wctx.n)
    rest = wctx.thread_flats != bdim - 1
    if rest.any():
        pm_out.write_warp(wctx, wctx.global_ids[rest], mine[rest], lanes=rest)
        if persist_on:
            wctx.persist(rest)
    yield
    last = ~rest
    if last.any():
        pm_out.write_warp(wctx, wctx.global_ids[last], mine[last], lanes=last)
        if persist_on:
            wctx.persist(last)


@dataclass
class PrefixSumConfig:
    """Scaled PS (paper: 1K arrays of 1M integers, 4 GB)."""

    n: int = 16384
    block_dim: int = 256
    arrays: int = 1
    seed: int = 31


class PrefixSum(CrashConsistent):
    """The PS workload runner."""

    name = "PS"
    category = Category.NATIVE
    fine_grained = True
    paper_data_bytes = 4_000_000_000  # Table 1: 4 GB

    def __init__(self, config: PrefixSumConfig | None = None) -> None:
        cfg = config or PrefixSumConfig()
        if cfg.n % cfg.block_dim:
            raise ValueError("n must be a multiple of block_dim")
        self.config = cfg

    def _make_inputs(self) -> list[np.ndarray]:
        """The arrays to scan: a pure function of the config's seed."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        return [rng.integers(1, 100, size=cfg.n, dtype=np.int64)
                for _ in range(cfg.arrays)]

    def _buffer_bytes(self) -> int:
        # partial sums + final sums, int64 each
        return _HEADER_BYTES + 2 * 8 * self.config.n

    def _psum_off(self) -> int:
        return _HEADER_BYTES

    def _out_off(self) -> int:
        return _HEADER_BYTES + 8 * self.config.n

    def run(self, mode: Mode, system=None, crash_injector=None,
            resume_state=None) -> RunResult:
        cfg = self.config
        system = system or make_system(mode)
        driver = ModeDriver(system, mode)
        self._inputs = self._make_inputs()
        bufs = []
        for a in range(cfg.arrays):
            buf = driver.buffer(f"/pm/ps{a}.state", self._buffer_bytes(),
                                fine_grained=True, paper_bytes=self.paper_data_bytes)
            bufs.append(buf)
        self._state = (system, driver, bufs)

        def scan_all():
            for a, buf in enumerate(bufs):
                self._scan_one(driver, buf, self._inputs[a], crash_injector)
            return cfg.arrays

        arrays, window = measure(system, scan_all)
        return RunResult(
            workload=self.name, mode=mode, elapsed=window.elapsed, window=window,
            extras={"arrays": arrays, "elements": cfg.arrays * cfg.n},
        )

    def _scan_one(self, driver, buf, data, injector) -> None:
        cfg = self.config
        system = driver.system
        n_blocks = cfg.n // cfg.block_dim
        hbm = system.machine.alloc_hbm(
            f"ps.in.{buf.path}", data.nbytes + n_blocks * 8
        )
        inp = DeviceArray(hbm, np.int64, 0, cfg.n)
        inp.np[:] = data
        p_sums = buf.array(np.int64, self._psum_off(), cfg.n)
        out = buf.array(np.int64, self._out_off(), cfg.n)
        persist_on = driver.mode.data_on_pm
        driver.persist_phase_begin()
        try:
            res = system.gpu.launch(
                partial_sums_kernel, n_blocks, cfg.block_dim,
                (inp, p_sums, persist_on), crash_injector=injector,
            )
            self._last_lane = res.lane
            # Exclusive scan of block totals (tiny, done by one warp).
            block_totals = p_sums.np[cfg.block_dim - 1 :: cfg.block_dim]
            offsets = DeviceArray(hbm, np.int64, data.nbytes, n_blocks)
            offsets.np[:] = np.concatenate([[0], np.cumsum(block_totals)[:-1]])
            system.gpu.compute(4 * n_blocks, active_threads=n_blocks)
            system.gpu.launch(
                final_sums_kernel, n_blocks, cfg.block_dim,
                (p_sums, offsets, out, persist_on), crash_injector=injector,
            )
        finally:
            driver.persist_phase_end()
        # Post-kernel persistence for the CPU-assisted modes.
        buf.persist_range(self._psum_off(), 2 * 8 * cfg.n)
        system.machine.free(hbm)

    def declare_invariants(self, system) -> list:
        """Fig. 8's recovery contract, as checkable predicates.

        The sentinel discipline promises: if a block's *last* slot is
        non-EMPTY in the durable image, every slot of that block is durable
        and correct.  Checked for both the partial-sums and the final-sums
        arrays against the deterministic reference scan.  Reads only the
        config and ``system``'s PM files, so any instance with the crashed
        run's config judges its crash state.
        """
        cfg = self.config
        inputs = self._make_inputs()

        def sentinel_implies_block() -> tuple[bool, str]:
            from ..core.mapping import gpm_map

            bad = []
            for a, data in enumerate(inputs):
                path = f"/pm/ps{a}.state"
                if not system.fs.exists(path):
                    continue  # crash predates the buffer
                region = gpm_map(system, path).region
                psum_ref = data.reshape(-1, cfg.block_dim).cumsum(axis=1)
                out_ref = np.cumsum(data).reshape(-1, cfg.block_dim)
                for label, off, ref in (("psum", self._psum_off(), psum_ref),
                                        ("out", self._out_off(), out_ref)):
                    durable = region.persisted_view(np.int64, off, cfg.n).reshape(
                        -1, cfg.block_dim)
                    torn = (durable[:, -1] != EMPTY) & (durable != ref).any(axis=1)
                    bad.extend(f"ps{a}.{label} block {blk}"
                               for blk in np.flatnonzero(torn).tolist())
            if bad:
                return False, "sentinel present but block torn: " + ", ".join(bad)
            return True, "every sentinelled block is complete and correct"

        def resume_completes() -> tuple[bool, str]:
            # Line 3 of Fig. 8: a re-run skips completed blocks and
            # recomputes the rest; afterwards the scan must be exact.
            if not system.fs.exists("/pm/ps0.state"):
                return True, "crash predates the buffer; nothing to resume"
            from .base import PersistentBuffer

            driver = ModeDriver(system, Mode.GPM)
            for a, data in enumerate(inputs):
                buf = PersistentBuffer.reopen(driver, f"/pm/ps{a}.state")
                self._scan_one(driver, buf, data, None)
                got = buf.visible_view(np.int64, self._out_off(), cfg.n)
                if not np.array_equal(got, np.cumsum(data)):
                    return False, f"resumed scan of ps{a} is wrong"
            return True, "resumed run produced the exact scan"

        return [
            ("ps-sentinel-implies-block",
             "a durable last-thread value implies the whole block is durable",
             sentinel_implies_block),
            ("ps-resume-completes",
             "re-running after the crash completes the scan exactly",
             resume_completes),
        ]

    def verify(self) -> bool:
        """Final sums must equal the host-side inclusive scan."""
        system, driver, bufs = self._state
        for data, buf in zip(self._inputs, bufs):
            got = buf.visible_view(np.int64, self._out_off(), self.config.n)
            if not np.array_equal(got, np.cumsum(data)):
                return False
        return True
