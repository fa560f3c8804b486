"""Event-frontier replays: the warp lane against the scalar reference.

A crash armed at an event frontier lets ``Gpu.launch`` take the warp lane,
so every ``repro.check`` replay of an ``event:N`` frontier now runs the
vectorized twins.  The scalar lane stays the reference: replaying the same
frontier under :func:`~repro.gpu.warp.scalar_lane` must give the same
timestamped event stream, the same ``SimulatedCrash``, the same persisted
images after the crash and after recovery, and the same clock.
"""

import numpy as np
import pytest

from repro.check import CHECK_TARGETS, CrashExplorer, make_oracle
from repro.check.frontier import prune_frontiers
from repro.gpu import device
from repro.gpu.warp import scalar_lane
from repro.sim import event_to_record
from repro.sim.crash import CrashInjector, SimulatedCrash
from repro.sim.memory import MemKind
from repro.workloads.base import Mode

#: event frontiers replayed per target in tier-1 (0 replays every one)
FRONTIERS_PER_TARGET = 12

#: targets whose replays launch at least one kernel with a warp twin
WARP_TARGETS = {"prefix_sum", "kvs", "kvs-delete", "db-update", "hashmap"}


def _pm_images(system) -> dict:
    return {r.name: r.persisted.copy() for r in system.machine.regions
            if r.kind is MemKind.PM}


def replay(target: str, ordinal: int) -> dict:
    """Crash ``target`` at event frontier ``ordinal``, recover, observe."""
    oracle = make_oracle(target)
    system = oracle.build_system(Mode.GPM)
    events, lanes = [], []
    system.events.subscribe(lambda ts, ev: events.append(event_to_record(ts, ev)))
    resolve = device.resolve_warp_impl

    def spy(kernel):
        # Lane choice per launch, recorded even when the launch crashes.
        impl = resolve(kernel)
        lanes.append("scalar" if impl is None else "warp")
        return impl

    injector = CrashInjector(system.machine)
    injector.arm_at_frontier(ordinal)
    device.resolve_warp_impl = spy
    try:
        try:
            oracle.execute(system, Mode.GPM, injector)
        except SimulatedCrash as exc:
            crash = (str(exc), exc.threads_retired, exc.crash_after,
                     exc.frontier_ordinal, exc.frontier_kind, exc.seed)
        else:
            raise AssertionError(f"{target}: event:{ordinal} never fired")
        finally:
            injector.disarm()
        crashed = _pm_images(system)
        system.machine.drop_volatile_regions()
        oracle.recover(system, Mode.GPM)
    finally:
        device.resolve_warp_impl = resolve
    return {"events": events, "crash": crash,
            "threads_seen": injector.threads_seen, "crashed": crashed,
            "recovered": _pm_images(system),
            "clock": system.machine.clock.now, "lanes": lanes}


def event_frontiers(target: str, budget: int) -> list:
    recorded = CrashExplorer(target).record()
    return prune_frontiers([f for f in recorded if f.mechanism == "event"],
                           budget)


def assert_lanes_agree(target: str, ordinal: int) -> list:
    """Replay one frontier on both lanes; returns the default run's lanes."""
    default = replay(target, ordinal)
    with scalar_lane():
        reference = replay(target, ordinal)
    where = f"{target} event:{ordinal}"
    assert "warp" not in reference["lanes"], where
    assert default["crash"] == reference["crash"], where
    assert default["threads_seen"] == reference["threads_seen"], where
    assert default["clock"] == reference["clock"], where
    assert default["events"] == reference["events"], where
    for stage in ("crashed", "recovered"):
        ours, theirs = default[stage], reference[stage]
        assert ours.keys() == theirs.keys(), (where, stage)
        for name in ours:
            assert np.array_equal(ours[name], theirs[name]), (where, stage, name)
    return default["lanes"]


@pytest.mark.parametrize("target", sorted(CHECK_TARGETS))
def test_event_frontier_replays_match_the_scalar_lane(target):
    lanes = []
    for frontier in event_frontiers(target, FRONTIERS_PER_TARGET):
        lanes += assert_lanes_agree(target, frontier.value)
    assert ("warp" in lanes) == (target in WARP_TARGETS), lanes
