"""Edge cases of ``WarpContext``: one-lane warps, empty stores, lane masks.

A block whose thread count is not a multiple of 32 ends in a partial warp;
a 33-thread block ends in a one-lane warp, and a one-thread launch is
nothing else.  A single lane is trivially one densely packed run, so a
``coalesced=True`` store must accept it, and both lanes must then agree on
every event and on both memory images.
"""

import numpy as np
import pytest

from repro.core.persist import persist_window
from repro.gpu.warp import scalar_lane, vectorized_for
from repro.sim import event_to_record
from repro.workloads.base import Mode, make_system

_N = 80


def tail_store_kernel(ctx, words, pairs, vals):
    i = ctx.global_id
    ctx.store(words, i * 4, vals[i], np.uint32)
    ctx.store(pairs, i * 8, vals[2 * i:2 * i + 2], np.uint32)
    ctx.persist()


@vectorized_for(tail_store_kernel)
def tail_store_kernel_warp(wctx, words, pairs, vals):
    g = wctx.global_ids
    # One element per lane (the whole-warp route) and a two-element vector
    # per lane (the general route), both asserted coalesced.
    wctx.store(words, g * 4, vals[g], np.uint32, coalesced=True)
    pair_vals = vals[(2 * g)[:, None] + np.arange(2)]
    wctx.store(pairs, g * 8, pair_vals, np.uint32, coalesced=True)
    wctx.persist()


def _launch(mode, grid, block, forced_scalar):
    system = make_system(mode)
    words = system.machine.alloc_pm("words", _N * 4)
    pairs = system.machine.alloc_pm("pairs", _N * 8)
    vals = np.arange(1, 2 * _N + 1, dtype=np.uint32) * 7
    events = []
    system.events.subscribe(lambda ts, ev: events.append(event_to_record(ts, ev)))
    with persist_window(system):
        if forced_scalar:
            with scalar_lane():
                result = system.gpu.launch(tail_store_kernel, grid, block,
                                           (words, pairs, vals))
        else:
            result = system.gpu.launch(tail_store_kernel, grid, block,
                                       (words, pairs, vals))
    images = [(r.visible.copy(), r.persisted.copy()) for r in (words, pairs)]
    return result, events, images


@pytest.mark.parametrize("mode", [Mode.GPM, Mode.GPM_EPOCH],
                         ids=lambda m: m.value)
@pytest.mark.parametrize("grid,block", [(1, 1), (1, 33), (2, 33)],
                         ids=["1-thread", "33-thread-block", "2x33"])
def test_one_lane_tail_warp_matches_scalar(mode, grid, block):
    rs, ev_s, img_s = _launch(mode, grid, block, True)
    rw, ev_w, img_w = _launch(mode, grid, block, False)
    assert (rs.lane, rw.lane) == ("scalar", "warp")
    assert rs.elapsed == rw.elapsed
    assert rs.accounting == rw.accounting
    assert ev_s == ev_w
    for (vis_s, per_s), (vis_w, per_w) in zip(img_s, img_w):
        assert np.array_equal(vis_s, vis_w)
        assert np.array_equal(per_s, per_w)
    # Every thread's stores reached the media.
    threads = grid * block
    assert (img_w[0][1].view(np.uint32)[:threads]
            == (np.arange(threads) + 1) * 7).all()


def _warp(mode=Mode.GPM, block=32):
    """The last warp context of a one-block launch, captured from inside
    the kernel (a partial warp when ``block`` is not a multiple of 32)."""
    system = make_system(mode)
    pm = system.machine.alloc_pm("pm", 4096)
    captured = []

    def kernel(ctx):
        pass

    @vectorized_for(kernel)
    def kernel_warp(wctx):
        captured.append(wctx)

    system.gpu.launch(kernel, 1, block)
    return captured[-1], pm


def test_empty_store_is_a_no_op():
    wctx, pm = _warp()
    ops = wctx._engine.acct.ops
    for coalesced in (False, True):
        wctx.store(pm, np.empty(0, dtype=np.int64), np.empty(0, np.uint32),
                   np.uint32, lanes=np.empty(0, dtype=np.int64),
                   coalesced=coalesced)
    assert wctx._pending == []
    assert wctx._engine.acct.ops == ops
    assert not pm.visible.any()


@pytest.mark.parametrize("length", [31, 33, 40])
def test_lane_mask_of_wrong_length_is_rejected(length):
    wctx, pm = _warp()
    mask = np.zeros(length, dtype=bool)
    mask[-1] = True
    with pytest.raises(ValueError, match="lane mask"):
        wctx.active(mask)
    with pytest.raises(ValueError, match="lane mask"):
        wctx.store(pm, np.array([0], dtype=np.int64), np.uint32(5),
                   np.uint32, lanes=mask)
    with pytest.raises(ValueError, match="lane mask"):
        wctx.persist(mask)
    assert wctx._pending == []
    assert not pm.visible.any()


def test_lane_mask_of_partial_warp_uses_its_lane_count():
    wctx, _pm = _warp(block=40)  # the 8-lane tail warp of a 40-thread block
    assert wctx.n == 8
    mask = np.zeros(8, dtype=bool)
    mask[[3, 7]] = True
    assert wctx.active(mask).tolist() == [3, 7]
    with pytest.raises(ValueError, match="lane mask"):
        wctx.active(np.ones(32, dtype=bool))
    # Integer lanes are taken as given (no mask-length check).
    assert wctx.active([5, 7]).tolist() == [5, 7]


# -- lane-subset fences --------------------------------------------------------
#
# The warp lane keeps one lane group at one round and every other lane at a
# base round, and builds per-lane rounds only when a fence names a different
# lane set.  The kernel below walks every transition of that state against
# the scalar lane: a whole-warp fence first (so the base round is not 0),
# repeated fences of one subset with only its stores pending (one-pass
# drain) and with another subset's stores pending (masked drain), a fence
# naming the group through an equal mask, stores of part of the group, a
# switch to a second subset (per-lane fallback) or straight to a
# whole-warp fence (fallback from the group state), the closing whole-warp
# fence, and a last store that only retirement drains.

_A, _B, _C = slice(0, 8), slice(16, 24), slice(24, 32)
_SUBSET_WORDS = 16 * 32


def _subset_offset(slot, i):
    return (slot * 32 + i) * 4


def subset_fence_kernel(ctx, pm, switch):
    i = ctx.global_id
    in_a, in_b, in_c = 0 <= i < 8, 16 <= i < 24, 24 <= i
    ctx.store(pm, _subset_offset(0, i), i, np.uint32)
    ctx.persist()                   # whole warp
    if in_a:
        for r in (1, 2):            # only the group's stores pending
            ctx.store(pm, _subset_offset(r, i), 100 * r + i, np.uint32)
            ctx.persist()
    if in_b:
        ctx.store(pm, _subset_offset(3, i), 300 + i, np.uint32)
    if in_a:
        ctx.store(pm, _subset_offset(4, i), 400 + i, np.uint32)
        ctx.persist()               # B's store stays pending
        if i < 4:
            ctx.store(pm, _subset_offset(5, i), 500 + i, np.uint32)
        ctx.persist()               # the group again, through a mask
    if switch:
        if in_b:
            ctx.persist()           # a second subset
        if in_a:
            ctx.store(pm, _subset_offset(6, i), 600 + i, np.uint32)
            ctx.persist()
    ctx.store(pm, _subset_offset(7, i), 700 + i, np.uint32)
    ctx.persist()                   # whole warp
    if in_c:
        ctx.store(pm, _subset_offset(8, i), 800 + i, np.uint32)
    if in_a:
        ctx.persist()               # C's store waits for retirement


@vectorized_for(subset_fence_kernel)
def subset_fence_kernel_warp(wctx, pm, switch):
    every = wctx.lanes
    a, b, c = every[_A], every[_B], every[_C]
    wctx.store(pm, _subset_offset(0, every), every, np.uint32)
    wctx.persist()
    for r in (1, 2):
        wctx.store(pm, _subset_offset(r, a), 100 * r + a, np.uint32, lanes=a)
        wctx.persist(a)
    wctx.store(pm, _subset_offset(3, b), 300 + b, np.uint32, lanes=b)
    wctx.store(pm, _subset_offset(4, a), 400 + a, np.uint32, lanes=a)
    wctx.persist(a)
    part = a[:4].copy()
    wctx.store(pm, _subset_offset(5, part), 500 + part, np.uint32, lanes=part)
    mask = np.zeros(wctx.n, dtype=bool)
    mask[_A] = True
    wctx.persist(mask)
    if switch:
        wctx.persist(b)
        wctx.store(pm, _subset_offset(6, a), 600 + a, np.uint32, lanes=a)
        wctx.persist(a)
    wctx.store(pm, _subset_offset(7, every), 700 + every, np.uint32)
    wctx.persist()
    wctx.store(pm, _subset_offset(8, c), 800 + c, np.uint32, lanes=c)
    wctx.persist(a)


def _subset_launch(mode, switch, forced_scalar):
    system = make_system(mode)
    pm = system.machine.alloc_pm("pm", _SUBSET_WORDS * 4)
    events = []
    system.events.subscribe(lambda ts, ev: events.append(event_to_record(ts, ev)))
    with persist_window(system):
        if forced_scalar:
            with scalar_lane():
                result = system.gpu.launch(subset_fence_kernel, 1, 32, (pm, switch))
        else:
            result = system.gpu.launch(subset_fence_kernel, 1, 32, (pm, switch))
    return result, events, pm.visible.copy(), pm.persisted.copy()


@pytest.mark.parametrize("switch", [True, False], ids=["switch-subset", "group-then-warp"])
@pytest.mark.parametrize("mode", [Mode.GPM, Mode.GPM_EPOCH, Mode.GPM_RELAXED,
                                  Mode.GPM_ADAPTIVE], ids=lambda m: m.value)
def test_lane_subset_fences_match_scalar(mode, switch):
    rs, ev_s, vis_s, per_s = _subset_launch(mode, switch, True)
    rw, ev_w, vis_w, per_w = _subset_launch(mode, switch, False)
    assert (rs.lane, rw.lane) == ("scalar", "warp")
    assert rs.accounting == rw.accounting
    assert rs.elapsed == rw.elapsed
    assert ev_s == ev_w
    assert any(e["event"] == "warp_drain" for e in ev_w)
    assert np.array_equal(vis_s, vis_w)
    assert np.array_equal(per_s, per_w)
    # Every store drained (the last at retirement), so every word is durable.
    words = per_w.view(np.uint32).reshape(-1, 32)
    assert words[7].tolist() == [700 + i for i in range(32)]
    assert words[3, _B].tolist() == [300 + i for i in range(16, 24)]
    assert words[8, _C].tolist() == [800 + i for i in range(24, 32)]
