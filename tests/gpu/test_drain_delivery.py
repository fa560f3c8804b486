"""Warp drain delivery: one queue, drained per warp or per barrier.

``_BlockEngine`` queues every warp-round drain; without a crash injector
the queue drains at barriers and kernel completion, with one (armed or
not) it drains after every append.  Both must be indistinguishable to
everything but crash injection: the same timestamped events, the same
launch accounting and the same persisted image, on every route the
machine picks (Optane, LLC installs, adaptive staging, DRAM, zero-length
segments).  A crash must also stop delivery: stores still buffered when
it fires die with it.

A region run of few queued segments is delivered from Python ints, larger
ones through numpy; the two routes must be indistinguishable too, crash
states included.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import System
from repro.core.persist import persist_window
from repro.gpu.device import _BlockEngine
from repro.gpu.kernel import _IMPLICIT_ROUND, LaunchAccounting
from repro.sim import CrashInjector, SimulatedCrash, SystemConfig, event_to_record
from repro.sim.events import (
    Crash,
    GpuPmWrite,
    KernelLaunch,
    LlcInstall,
    OptaneEpoch,
    PcieWrite,
    WarpDrain,
)

MODELS = ("strict", "epoch", "relaxed", "adaptive", "eadr")
DELIVERY_EVENTS = (WarpDrain, LlcInstall, OptaneEpoch, GpuPmWrite)
THREADS = 128


def _mixed_kernel(ctx, pm, dram):
    """PM + DRAM stores, an empty store, a fence, a barrier, more stores."""
    i = ctx.global_id
    # 16 B per thread: one 512 B run per warp (adaptive's direct path).
    ctx.store(pm, 16 * i, np.full(4, i + 1, dtype=np.uint32), dtype=np.uint32)
    ctx.store(dram, 4 * i, i + 7, dtype=np.uint32)
    ctx.store(pm, 12288 + 16 * i, np.empty(0, dtype=np.uint32), dtype=np.uint32)
    ctx.persist()
    yield
    # 4 B at a 64 B stride: small scattered runs (adaptive's staged path).
    ctx.store(pm, 4096 + 64 * i, i + 3, dtype=np.uint32)
    ctx.persist()
    ctx.store(dram, 1024 + 4 * i, i, dtype=np.uint32)


def _spans(starts, lengths, tx_bytes=128):
    """128 B PCIe transactions of a drain's runs; empty runs carry none."""
    s = np.asarray(starts, dtype=np.int64)
    l = np.asarray(lengths, dtype=np.int64)
    s, l = s[l > 0], l[l > 0]
    return int(((s + l - 1) // tx_bytes - s // tx_bytes + 1).sum())


def _run_mixed(model, ddio_off, per_warp):
    system = System(persistency=model)
    machine = system.machine
    pm = machine.alloc_pm("pm", 16384)
    dram = machine.alloc_dram("dram", 2048)
    records = []
    machine.events.subscribe(lambda ts, ev: records.append(event_to_record(ts, ev)))
    injector = CrashInjector(machine) if per_warp else None

    def launch():
        return system.gpu.launch(_mixed_kernel, 1, THREADS, (pm, dram),
                                 crash_injector=injector)

    if ddio_off:
        with persist_window(system):
            machine.set_ddio(False)
            result = launch()
    else:
        result = launch()
    assert result.lane == "scalar"
    return records, result.accounting, pm.persisted.copy(), pm.visible.copy()


@pytest.mark.parametrize("ddio_off", [False, True], ids=["ddio-on", "ddio-off"])
@pytest.mark.parametrize("model", MODELS)
def test_per_warp_and_queued_delivery_are_identical(model, ddio_off, monkeypatch):
    # Each eager drain is one warp round of at most 64 segments, within the
    # list route's cutoff; the queued side is put above it, so it takes
    # the vectorized route.
    eager = _run_mixed(model, ddio_off, per_warp=True)
    monkeypatch.setattr(_BlockEngine, "LIST_DRAIN_SEGMENTS", 0)
    queued = _run_mixed(model, ddio_off, per_warp=False)
    assert queued[0] == eager[0]
    assert queued[1] == eager[1]
    assert np.array_equal(queued[2], eager[2])
    assert np.array_equal(queued[3], eager[3])
    drains = [r for r in eager[0] if r["event"] == WarpDrain.etype]
    # Both barrier phases of all four warps drain, the PM and DRAM ones
    # separately, and the empty store survives as a zero-length run that
    # carries no PCIe transaction.
    assert len(drains) >= 8
    assert any(0 in r["lengths"] for r in drains)
    acct = eager[1]
    assert acct.host_write_bytes == sum(r["nbytes"] for r in drains)
    assert acct.host_write_tx == sum(_spans(r["starts"], r["lengths"])
                                     for r in drains)


# -- crashed launches ----------------------------------------------------------


def _plain_kernel(ctx, pm):
    ctx.store(pm, 4 * ctx.global_id, ctx.global_id + 1, dtype=np.uint32)
    ctx.persist()


def _barrier_kernel(ctx, pm):
    i = ctx.global_id
    ctx.store(pm, 4 * i, i + 1, dtype=np.uint32)
    ctx.persist()
    yield
    ctx.store(pm, 1024 + 4 * ((i * 37) % THREADS), i + 2, dtype=np.uint32)
    ctx.persist()


KERNELS = {"plain": _plain_kernel, "barrier": _barrier_kernel}


def _launch_events(model, kernel, frontier):
    """Events of one launch, crashed at its ``frontier``-th frontier event."""
    system = System(persistency=model)
    machine = system.machine
    pm = machine.alloc_pm("pm", 4096)
    events = []
    recording = [False]
    crashing = [False]

    def record(ts, ev):
        if type(ev) is KernelLaunch:
            recording[0] = True
        # The crash's own events (an eADR LLC drain) are not deliveries.
        if recording[0] and (not crashing[0] or type(ev) is Crash):
            events.append(ev)

    machine.events.subscribe(record)
    crash_of = machine.crash

    def crash_unrecorded():
        crashing[0] = True
        crash_of()
        crashing[0] = False

    machine.crash = crash_unrecorded
    injector = CrashInjector(machine)
    crash = None
    with persist_window(system):
        if frontier is not None:
            injector.arm_at_frontier(frontier)
        try:
            system.gpu.launch(kernel, 1, THREADS, (pm,), crash_injector=injector)
        except SimulatedCrash as exc:
            crash = exc
        recording[0] = False
    return events, crash, machine


def _frontier_cases():
    for model in ("strict", "epoch", "eadr"):
        for name, kernel in KERNELS.items():
            events, _, _ = _launch_events(model, kernel, None)
            n = sum(1 for ev in events if type(ev).frontier_kind is not None)
            for frontier in range(n):
                yield pytest.param(model, kernel, frontier,
                                   id=f"{model}-{name}-{frontier}")


@pytest.mark.parametrize("model,kernel,frontier", list(_frontier_cases()))
def test_crashed_launch_delivers_nothing_after_the_crash(model, kernel, frontier):
    events, crash, machine = _launch_events(model, kernel, frontier)
    assert crash is not None
    at = next(i for i, ev in enumerate(events) if type(ev) is Crash)
    assert not [ev for ev in events[at:] if isinstance(ev, DELIVERY_EVENTS)]
    drains = [ev for ev in events[:at] if type(ev) is WarpDrain]
    if crash.frontier_kind == "warp-drain":
        drains = drains[:-1]  # the drain the crash fired on never lands
    writes = [ev for ev in events if type(ev) is PcieWrite]
    assert machine.config.pcie_tx_bytes == 128
    assert sum(ev.nbytes for ev in writes) == sum(d.nbytes for d in drains)
    assert (sum(ev.transactions for ev in writes)
            == sum(_spans(d.starts, d.lengths) for d in drains))


@pytest.mark.parametrize("model", ("strict", "eadr"))
def test_crash_leaves_no_dirty_lines_from_buffered_stores(model):
    # Crash on the first warp drain of the barrier: the other three warps'
    # stores are still buffered and must not reach the post-crash LLC,
    # where DDIO is back on.
    events, crash, machine = _launch_events(model, _barrier_kernel, 1)
    assert crash is not None and crash.frontier_kind == "warp-drain"
    assert machine.llc.dirty_lines(machine.region("pm")) == []


# -- the list route against the vectorized route ------------------------------

#: route -> (persistency model, region kind, inside a persist window)
ROUTES = {
    "ddio-off": ("strict", "pm", True),
    "ddio-on": ("strict", "pm", False),
    "adaptive": ("adaptive", "pm", True),
    "dram": ("strict", "dram", True),
    "eadr": ("eadr", "pm", True),
}
REGION_BYTES = 8192
#: A 64-line DDIO window, so LLC-bound drains also evict.
SMALL_LLC = SystemConfig().with_overrides(llc_ddio_bytes=4096)

# Small stores stage under the adaptive model, runs past an XPLine go direct.
_segments = st.lists(st.tuples(st.integers(0, REGION_BYTES - 640),
                               st.one_of(st.integers(0, 48), st.integers(200, 600))),
                     min_size=1, max_size=16)
_groups = st.lists(st.tuples(_segments, st.sampled_from([1, 2, _IMPLICIT_ROUND])),
                   min_size=1, max_size=4)


def _entries(region, groups, warp_lane, empty_batch):
    """Queue entries of one region run: int lists or numpy batches of <= 5."""
    entries = []
    for segments, round_no in groups:
        starts = [s for s, _ in segments]
        lengths = [n for _, n in segments]
        if warp_lane:
            starts = [np.array(starts[k:k + 5], dtype=np.int64)
                      for k in range(0, len(starts), 5)]
            lengths = [np.array(lengths[k:k + 5], dtype=np.int64)
                       for k in range(0, len(lengths), 5)]
            if empty_batch:
                starts.append(np.empty(0, dtype=np.int64))
                lengths.append(np.empty(0, dtype=np.int64))
        entries.append((region, starts, lengths, round_no))
    return entries


def _deliver(route, groups, warp_lane, empty_batch, lists, crash_at=None):
    """Drain one region run through one route; what every observer sees."""
    model, kind, window = ROUTES[route]
    system = System(SMALL_LLC, persistency=model)
    machine = system.machine
    region = (machine.alloc_pm if kind == "pm" else machine.alloc_dram)("r", REGION_BYTES)
    region.visible[:] = np.arange(REGION_BYTES) % 251
    records, frontiers = [], []

    def observe(ts, ev):
        records.append(event_to_record(ts, ev))
        if type(ev).frontier_kind is not None:
            frontiers.append(len(records))

    acct = LaunchAccounting()
    engine = _BlockEngine(machine, acct)
    engine.LIST_DRAIN_SEGMENTS = 10**6 if lists else -1
    injector = CrashInjector(machine)
    crashed = False
    try:
        with persist_window(system) if window else nullcontext():
            if kind == "pm":
                # Leave the Optane stream mid-region, so the first epoch's
                # sequentiality depends on it.
                machine.optane.write_epoch(region, [2048], [256])
            machine.events.subscribe(observe)
            if crash_at is not None:
                injector.arm_at_frontier(crash_at)
            engine._queue.extend(_entries(region, groups, warp_lane, empty_batch))
            engine._drain_queue()
    except SimulatedCrash:
        crashed = True
    image = region.persisted if region.persisted is not None else region.visible
    optane = machine.optane
    return {
        "records": records, "frontiers": len(frontiers), "crashed": crashed,
        "accounting": acct, "image": image.tobytes(),
        "stream": (optane._last_line, optane._last_region == region.token),
        "dirty": machine.llc.dirty_lines(region),
    }


@pytest.mark.parametrize("route", ROUTES)
@settings(max_examples=30, deadline=None)
@given(groups=_groups, warp_lane=st.booleans(), empty_batch=st.booleans())
def test_list_route_matches_vectorized_route(route, groups, warp_lane, empty_batch):
    args = (route, groups, warp_lane, empty_batch)
    vectorized = _deliver(*args, lists=False)
    assert _deliver(*args, lists=True) == vectorized
    assert not vectorized["crashed"]
    for frontier in range(vectorized["frontiers"]):
        crashed = _deliver(*args, lists=False, crash_at=frontier)
        assert crashed["crashed"]
        assert _deliver(*args, lists=True, crash_at=frontier) == crashed
