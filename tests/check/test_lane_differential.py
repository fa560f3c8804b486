"""Crash replays and recording: the warp lane against the scalar reference.

``Gpu.launch`` takes the warp lane under every crash injector and under the
frontier recorder.  An ``event:N`` replay runs the vectorized twins
throughout; a ``threads:N`` replay does too, except for the one warp the
crash cuts before its last thread, which runs thread at a time.  The
scalar lane stays the reference: replaying the same frontier under
:func:`~repro.gpu.warp.scalar_lane` must give the same timestamped event
stream, the same ``SimulatedCrash`` and ``threads_seen``, the same
persisted images after the crash and after recovery, the same verdicts and
the same clock, and recording must give the same frontier list.
"""

import numpy as np
import pytest

from repro.check import CHECK_TARGETS, CrashExplorer, make_oracle
from repro.check.frontier import FrontierRecorder, prune_frontiers
from repro.check.oracle import RunObservation, normalize_invariants
from repro.core.persist import persist_window
from repro.gpu import device
from repro.gpu.warp import scalar_lane, vectorized_for
from repro.sim import event_to_record
from repro.sim.crash import CrashInjector, SimulatedCrash
from repro.sim.memory import MemKind
from repro.workloads.base import Mode, make_system

#: event frontiers replayed per target in tier-1 (0 replays every one)
FRONTIERS_PER_TARGET = 12

#: thread-count frontiers replayed per (target, mode) in tier-1 (0: all)
THREAD_FRONTIERS_PER_MODE = 4

#: targets whose replays launch at least one kernel with a warp twin
WARP_TARGETS = {"prefix_sum", "kvs", "kvs-delete", "db-update", "hashmap"}

#: (target, mode) pairs: every oracle mode of every target
TARGET_MODES = [(target, mode) for target in sorted(CHECK_TARGETS)
                for mode in make_oracle(target).modes]

#: the pairs whose run path takes a thread-count injector
THREAD_TARGET_MODES = [(target, mode) for target, mode in TARGET_MODES
                       if make_oracle(target).supports_thread_injection]


def _pair_id(pair) -> str:
    target, mode = pair
    return f"{target}-{mode.value}"


def _pm_images(system) -> dict:
    return {r.name: r.persisted.copy() for r in system.machine.regions
            if r.kind is MemKind.PM}


def replay(target: str, frontier, mode: Mode = Mode.GPM) -> dict:
    """Crash ``target`` at ``frontier``, recover, judge, observe."""
    oracle = make_oracle(target)
    system = oracle.build_system(mode)
    events, lanes = [], []
    system.events.subscribe(lambda ts, ev: events.append(event_to_record(ts, ev)))
    observation = RunObservation()
    system.events.subscribe(observation)
    resolve = device.resolve_warp_impl

    def spy(kernel):
        # Lane choice per launch, recorded even when the launch crashes.
        impl = resolve(kernel)
        lanes.append("scalar" if impl is None else "warp")
        return impl

    injector = CrashInjector(system.machine)
    if frontier.mechanism == "event":
        injector.arm_at_frontier(frontier.value)
    else:
        injector.arm(frontier.value)
    device.resolve_warp_impl = spy
    try:
        try:
            oracle.execute(system, mode, injector)
        except SimulatedCrash as exc:
            crash = (str(exc), exc.threads_retired, exc.crash_after,
                     exc.frontier_ordinal, exc.frontier_kind, exc.seed)
        else:
            raise AssertionError(f"{target}: {frontier.spec()} never fired")
        finally:
            injector.disarm()
        crashed = _pm_images(system)
        system.machine.drop_volatile_regions()
        oracle.attach(system, mode)
        oracle.recover(system, mode)
    finally:
        device.resolve_warp_impl = resolve
    verdicts = [(v.name, v.ok, v.detail) for v in (
        check.evaluate() for check in normalize_invariants(
            oracle.declare_invariants(system, mode, observation)))]
    return {"events": events, "crash": crash,
            "threads_seen": injector.threads_seen, "crashed": crashed,
            "recovered": _pm_images(system), "verdicts": verdicts,
            "clock": system.machine.clock.now, "lanes": lanes}


def recorded(target: str, mode: Mode = Mode.GPM, mechanism: str = "event",
             budget: int = 0) -> list:
    frontiers = CrashExplorer(target, mode).record()
    return prune_frontiers([f for f in frontiers if f.mechanism == mechanism],
                           budget)


def assert_lanes_agree(target: str, frontier, mode: Mode = Mode.GPM) -> list:
    """Replay one frontier on both lanes; returns the default run's lanes."""
    default = replay(target, frontier, mode)
    with scalar_lane():
        reference = replay(target, frontier, mode)
    where = f"{target} {mode.value} {frontier.spec()}"
    assert "warp" not in reference["lanes"], where
    for key in ("crash", "threads_seen", "clock", "events", "verdicts"):
        assert default[key] == reference[key], (where, key)
    for stage in ("crashed", "recovered"):
        ours, theirs = default[stage], reference[stage]
        assert ours.keys() == theirs.keys(), (where, stage)
        for name in ours:
            assert np.array_equal(ours[name], theirs[name]), (where, stage, name)
    return default["lanes"]


@pytest.mark.parametrize("target", sorted(CHECK_TARGETS))
def test_event_frontier_replays_match_the_scalar_lane(target):
    lanes = []
    for frontier in recorded(target, budget=FRONTIERS_PER_TARGET):
        lanes += assert_lanes_agree(target, frontier)
    assert ("warp" in lanes) == (target in WARP_TARGETS), lanes


@pytest.mark.parametrize("pair", THREAD_TARGET_MODES, ids=_pair_id)
def test_thread_frontier_replays_match_the_scalar_lane(pair):
    target, mode = pair
    frontiers = recorded(target, mode, "threads", THREAD_FRONTIERS_PER_MODE)
    lanes = []
    for frontier in frontiers:
        lanes += assert_lanes_agree(target, frontier, mode)
    assert frontiers
    assert ("warp" in lanes) == (target in WARP_TARGETS), lanes


@pytest.mark.parametrize("pair", TARGET_MODES, ids=_pair_id)
def test_recorded_frontiers_match_the_scalar_lane(pair):
    target, mode = pair

    def listed():
        return [(f.spec(), f.kind, f.description)
                for f in CrashExplorer(target, mode).record()]

    default = listed()
    with scalar_lane():
        assert listed() == default


# ---------------------------------------------------------------------------
# the cut rule: only the warp a thread-count crash cuts runs per thread
# ---------------------------------------------------------------------------

#: threads per block: two full warps and a 16-lane tail warp
_BLOCK = 80
_WORDS = 4 * _BLOCK


def cut_kernel(ctx, pm, calls):
    calls.append(("thread", ctx.global_id))
    i = ctx.global_id
    ctx.store(pm, i * 4, i + 1, np.uint32)
    ctx.persist()
    ctx.store(pm, (2 * _BLOCK + i) * 4, i + 7, np.uint32)


@vectorized_for(cut_kernel)
def cut_kernel_warp(wctx, pm, calls):
    calls.append(("warp", wctx.warp_global))
    g = wctx.global_ids
    wctx.store(pm, g * 4, (g + 1).astype(np.uint32), np.uint32)
    wctx.persist()
    wctx.store(pm, (2 * _BLOCK + g) * 4, (g + 7).astype(np.uint32), np.uint32)


def barrier_kernel(ctx, pm, calls):
    calls.append(("thread", ctx.global_id))
    i = ctx.global_id
    ctx.store(pm, i * 4, i + 1, np.uint32)
    ctx.persist()
    yield
    ctx.store(pm, (2 * _BLOCK + i) * 4, i + 7, np.uint32)


@vectorized_for(barrier_kernel)
def barrier_kernel_warp(wctx, pm, calls):
    calls.append(("warp", wctx.warp_global))
    g = wctx.global_ids
    wctx.store(pm, g * 4, (g + 1).astype(np.uint32), np.uint32)
    wctx.persist()
    yield
    wctx.store(pm, (2 * _BLOCK + g) * 4, (g + 7).astype(np.uint32), np.uint32)


def _cut_run(kernel, arm, launches, grid=1):
    """``launches`` launches of ``kernel`` under one armed injector."""
    system = make_system(Mode.GPM)
    pm = system.machine.alloc_pm("pm", _WORDS * 4)
    events, calls = [], []
    system.events.subscribe(lambda ts, ev: events.append(event_to_record(ts, ev)))
    injector = CrashInjector(system.machine)
    arm(injector)
    crash = None
    try:
        with persist_window(system):
            for _ in range(launches):
                calls.clear()
                system.gpu.launch(kernel, grid, _BLOCK, (pm, calls),
                                  crash_injector=injector)
    except SimulatedCrash as exc:
        crash = (str(exc), exc.threads_retired, exc.crash_after, exc.seed)
    return {"events": events, "crash": crash,
            "threads_seen": injector.threads_seen,
            "visible": pm.visible.copy(), "persisted": pm.persisted.copy(),
            "clock": system.machine.clock.now, "calls": list(calls)}


def _assert_cut(kernel, arm, *, launches=1, grid=1):
    """Both lanes agree; returns the default lane's last-launch calls."""
    default = _cut_run(kernel, arm, launches, grid)
    with scalar_lane():
        reference = _cut_run(kernel, arm, launches, grid)
    assert all(kind == "thread" for kind, _ in reference["calls"])
    for key in ("crash", "threads_seen", "clock", "events"):
        assert default[key] == reference[key], key
    assert np.array_equal(default["visible"], reference["visible"])
    assert np.array_equal(default["persisted"], reference["persisted"])
    assert default["crash"] is not None
    return default["calls"]


def _warps(*ids):
    return [("warp", w) for w in ids]


def _threads(lo, hi):
    return [("thread", t) for t in range(lo, hi)]


def test_cut_at_zero_runs_the_first_thread_alone():
    # arm(0) fires at the first retirement: warp 0's first thread.
    calls = _assert_cut(cut_kernel, lambda inj: inj.arm(0))
    assert calls == _threads(0, 1)


def test_cut_at_a_warps_first_thread():
    calls = _assert_cut(cut_kernel, lambda inj: inj.arm(33))
    assert calls == _warps(0) + _threads(32, 33)


def test_cut_at_a_warps_last_thread_stays_on_the_warp_lane():
    # Both lanes fire in the warp's last advance, before its flush.
    calls = _assert_cut(cut_kernel, lambda inj: inj.arm(64))
    assert calls == _warps(0, 1)


def test_cut_inside_the_partial_tail_warp():
    calls = _assert_cut(cut_kernel, lambda inj: inj.arm(70))
    assert calls == _warps(0, 1) + _threads(64, 70)


def test_cut_in_the_second_launch():
    # The count is cumulative: the first launch runs warp by warp whole.
    calls = _assert_cut(cut_kernel, lambda inj: inj.arm(_BLOCK + 40),
                        launches=2)
    assert calls == _warps(0) + _threads(32, 40)


def test_generator_kernels_advance_per_barrier_step():
    # A barrier step retires threads together on either lane: no warp is
    # cut, the crash fires at the step that crosses the point (block 1's
    # last, which retires all of its threads).
    calls = _assert_cut(barrier_kernel, lambda inj: inj.arm(_BLOCK + 5),
                        grid=2)
    assert calls == _warps(0, 1, 2, 3, 4, 5)


def test_arm_random_is_replayed_on_the_warp_lane():
    # The Table 5 path: a seeded random point, the same crash either lane.
    points = []

    def arm(injector):
        points.append(injector.arm_random(2 * _BLOCK, seed=11))

    calls = _assert_cut(cut_kernel, arm, grid=2)
    point = points[0]
    assert points == [point, point]
    # The crash cuts the warp of thread ``point - 1``, unless that thread
    # is its warp's last.
    t = max(point, 1) - 1
    if t % _BLOCK in (31, 63, _BLOCK - 1):
        assert all(kind == "warp" for kind, _ in calls)
    else:
        assert calls[-1] == ("thread", t)


def test_recorder_sees_one_thread_retirements_on_the_warp_lane():
    def frontiers():
        system = make_system(Mode.GPM)
        pm = system.machine.alloc_pm("pm", _WORDS * 4)
        recorder = FrontierRecorder(window_samples=_BLOCK)
        system.events.subscribe(recorder.observe)
        calls = []
        with persist_window(system):
            result = system.gpu.launch(cut_kernel, 2, _BLOCK, (pm, calls),
                                       crash_injector=recorder)
        return result.lane, [f.spec() for f in recorder.frontiers()]

    lane, default = frontiers()
    with scalar_lane():
        reference_lane, reference = frontiers()
    assert (lane, reference_lane) == ("warp", "scalar")
    assert default == reference
    # every count inside warp 0's unfenced window is a frontier
    assert {f"threads:{n}" for n in range(1, 33)} <= set(default)
