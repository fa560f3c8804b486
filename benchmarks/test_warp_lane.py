"""Micro-benchmark of the warp lane's per-warp cost, store to Optane epoch.

One launch of 4,096 full warps (128 blocks of 1,024 threads), each warp a
coalesced 4 B store per lane followed by a whole-warp system fence - the
per-pixel persist shape of SRAD and PS.  The kernel takes the warp lane,
so the time is the Python cost of one ``WarpContext`` from construction
through ``store``, ``persist``, ``flush_warp`` and the drain queue to its
``OptaneEpoch`` event.  Divide a round's time by 4,096 for µs per warp.

Two persistency modes: ``gpm`` (strict, DDIO off inside the persist
window: every warp round drains as its own Optane epoch) and
``gpm-epoch`` (the epoch policy: one drain round per barrier epoch).

The kernel is the real per-warp shape (32 lanes x 4 B), not a large
batch: a numpy route that wins on big arrays can lose on the small calls
that dominate here (see "The small-call trap" in ``docs/performance.md``).
"""

import numpy as np
import pytest

from repro.core.persist import persist_window
from repro.gpu.warp import vectorized_for
from repro.workloads.base import Mode, make_system

_BLOCKS = 128
_THREADS = 1024
_WARPS = _BLOCKS * _THREADS // 32


def store_persist_kernel(ctx, pm, vals):
    i = ctx.global_id
    ctx.store(pm, i * 4, vals[i], np.uint32)
    ctx.persist()


@vectorized_for(store_persist_kernel)
def store_persist_kernel_warp(wctx, pm, vals):
    g = wctx.global_ids
    lo = int(g[0])
    wctx.store(pm, g * 4, vals[lo:lo + wctx.n], np.uint32, coalesced=True)
    wctx.persist()


@pytest.mark.parametrize("mode", [Mode.GPM, Mode.GPM_EPOCH],
                         ids=lambda m: m.value)
def test_full_warp_store_persist(benchmark, mode):
    n = _BLOCKS * _THREADS
    vals = np.arange(n, dtype=np.uint32)
    results = []

    def setup():
        system = make_system(mode)
        pm = system.machine.alloc_pm("pm", n * 4)
        return (system, pm), {}

    def run(system, pm):
        with persist_window(system):
            results.append(system.gpu.launch(store_persist_kernel, _BLOCKS,
                                             _THREADS, (pm, vals)))
        results.append(system)

    benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    result, system = results[-2:]
    assert result.lane == "warp"
    assert result.warps == _WARPS
    assert system.stats.pm_bytes_written == n * 4
    pm = system.machine.region("pm")
    assert np.array_equal(pm.persisted_view(np.uint32), vals)
