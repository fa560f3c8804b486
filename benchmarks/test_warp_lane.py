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

A second case times the partial warp of the serving layer: one-block
launches of a kvs-shaped kernel with 8 of 32 lanes active - an HCL
``insert_warp``, two table stores, a fence over the active lanes and two
HBM mirror stores, as ``set_warp`` runs them.  Divide a round's time by
``_KVS_LAUNCHES`` for µs per launch.
"""

import numpy as np
import pytest

from repro.core import gpmlog_create_hcl
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


_KVS_LAUNCHES = 256
_KVS_ACTIVE = 8
_ENTRY_CHUNKS = 6  # kvs undo entry: set, way, old key, old value (24 B)


def kvs_shape_kernel(ctx, log, table, mirror, n_ops, launch):
    i = ctx.global_id
    if i >= n_ops:
        return
    log.insert(ctx, np.full(_ENTRY_CHUNKS, launch * 32 + i, dtype=np.uint32))
    slot = (launch * 32 + i) * 16
    ctx.store(table, slot, launch + i, np.uint64)
    ctx.store(table, slot + 8, launch * i, np.uint64)
    ctx.persist()
    ctx.store(mirror, slot, launch + i, np.uint64)
    ctx.store(mirror, slot + 8, launch * i, np.uint64)


@vectorized_for(kvs_shape_kernel)
def kvs_shape_kernel_warp(wctx, log, table, mirror, n_ops, launch):
    sel = wctx.active(wctx.global_ids < n_ops)
    g = wctx.global_ids[sel]
    log.insert_warp(wctx, np.repeat((launch * 32 + g).astype(np.uint32),
                                    _ENTRY_CHUNKS).reshape(-1, _ENTRY_CHUNKS),
                    lanes=sel)
    slots = (launch * 32 + g) * 16
    keys = (launch + g).astype(np.uint64)
    values = (launch * g).astype(np.uint64)
    wctx.store(table, slots, keys, np.uint64, lanes=sel)
    wctx.store(table, slots + 8, values, np.uint64, lanes=sel)
    wctx.persist(sel)
    wctx.store(mirror, slots, keys, np.uint64, lanes=sel)
    wctx.store(mirror, slots + 8, values, np.uint64, lanes=sel)


def test_partial_warp_kvs_launches(benchmark):
    table_bytes = _KVS_LAUNCHES * 32 * 16
    results = []

    def setup():
        system = make_system(Mode.GPM)
        log = gpmlog_create_hcl(system, "/pm/kvs.log",
                                (_KVS_LAUNCHES * _ENTRY_CHUNKS + 8) * 128 + 4096,
                                1, 32)
        table = system.machine.alloc_pm("table", table_bytes)
        mirror = system.machine.alloc_hbm("mirror", table_bytes)
        return (system, log, table, mirror), {}

    def run(system, log, table, mirror):
        with persist_window(system):
            for launch in range(_KVS_LAUNCHES):
                results.append(system.gpu.launch(
                    kvs_shape_kernel, 1, 32,
                    (log, table, mirror, _KVS_ACTIVE, launch)))
        results.append((log, table))

    benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    result = results[-2]
    log, table = results[-1]
    assert result.lane == "warp"
    assert result.accounting.fences == 3 * _KVS_ACTIVE
    launch, lane = np.divmod(np.arange(_KVS_LAUNCHES * 32), 32)
    active = lane < _KVS_ACTIVE
    words = table.persisted_view(np.uint64).reshape(-1, 2)
    assert np.array_equal(words[:, 0], np.where(active, launch + lane, 0))
    assert np.array_equal(words[:, 1], np.where(active, launch * lane, 0))
    tails = log.host_tails()
    assert tails[:_KVS_ACTIVE].tolist() == [_KVS_LAUNCHES * _ENTRY_CHUNKS] * _KVS_ACTIVE
    assert not tails[_KVS_ACTIVE:].any()
    last = log.host_read_entry(_KVS_ACTIVE - 1, 4 * _ENTRY_CHUNKS).view(np.uint32)
    assert (last == (_KVS_LAUNCHES - 1) * 32 + _KVS_ACTIVE - 1).all()
