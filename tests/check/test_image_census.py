"""The image census against crash replays, for every seed-corpus target.

A :class:`~repro.check.frontier.FrontierRecorder` given an
:class:`~repro.check.census.ImageCensus` records, at each event frontier,
the chunk-shared durable image of every PM region (read through
:meth:`~repro.sim.machine.Machine.durable_image`).  The litmus campaign
and the crash explorer judge event frontiers from that census instead of
replaying them, so the census must equal what a crash replay leaves: the
persisted PM images after a
:meth:`~repro.sim.crash.CrashInjector.arm_at_frontier` replay to the same
ordinal, under every mode the target's oracle declares and under
``gpm-eadr``, where the snapshot overlays the LLC's dirty lines.
"""

import numpy as np
import pytest

from repro.check import make_oracle
from repro.check.census import ImageCensus
from repro.check.frontier import FrontierRecorder, prune_frontiers
from repro.check.litmus import SEED_CORPUS
from repro.sim import event_to_record
from repro.sim.crash import CrashInjector, SimulatedCrash
from repro.sim.memory import MemKind
from repro.system import System
from repro.workloads.base import Mode

#: event frontiers checked per (target, mode) in tier-1 (0 checks every one)
FRONTIERS_PER_POINT = 16

#: logged-batch targets also checked under eADR, where the LLC drains on crash
EADR_TARGETS = ("kvs", "kvs-delete", "db-update", "hashmap")

CASES = [(t, m.value) for t in SEED_CORPUS for m in make_oracle(t).modes]
CASES += [(t, Mode.GPM_EADR.value) for t in EADR_TARGETS]


def _pm_regions(machine) -> list:
    return [r for r in machine.regions if r.kind is MemKind.PM]


def record_census(target: str, mode: Mode):
    """The reference run's event frontiers and its image census."""
    oracle = make_oracle(target)
    system = oracle.build_system(mode)
    recorder = FrontierRecorder(snapshot=ImageCensus(system.machine, system.fs))
    system.events.subscribe(recorder.observe)
    try:
        injector = recorder if oracle.supports_thread_injection else None
        oracle.execute(system, mode, injector)
    finally:
        system.events.unsubscribe(recorder.observe)
    events = [f for f in recorder.frontiers() if f.mechanism == "event"]
    return events, [{name: f.state.region(name) for name in f.state.region_names()}
                    for f in events]


def replay_images(target: str, mode: Mode, ordinal: int) -> dict:
    """Persisted PM images after a crash replayed at event frontier ``ordinal``."""
    oracle = make_oracle(target)
    system = oracle.build_system(mode)
    injector = CrashInjector(system.machine)
    injector.arm_at_frontier(ordinal)
    try:
        oracle.execute(system, mode, injector)
    except SimulatedCrash:
        return {r.name: r.persisted.copy() for r in _pm_regions(system.machine)}
    finally:
        injector.disarm()
    raise AssertionError(f"{target}: event:{ordinal} never fired")


def census_mismatches(target: str, mode: Mode,
                      max_frontiers: int = FRONTIERS_PER_POINT) -> list[str]:
    """``event:N`` specs whose census image differs from the replay's."""
    events, census = record_census(target, mode)
    assert len(census) == len(events)
    bad = []
    for frontier in prune_frontiers(events, max_frontiers):
        taken = census[frontier.value]
        replayed = replay_images(target, mode, frontier.value)
        if taken.keys() != replayed.keys() or not all(
                np.array_equal(taken[name], image)
                for name, image in replayed.items()):
            bad.append(frontier.spec())
    return bad


@pytest.mark.parametrize("target,mode", CASES)
def test_census_image_equals_crash_replay(target, mode):
    assert census_mismatches(target, Mode(mode)) == []


def _reference_run(target: str, mode: Mode, census: bool):
    """Timestamped events and final PM images of one recorded run."""
    oracle = make_oracle(target)
    system = oracle.build_system(mode)
    machine = system.machine
    snapshot = ImageCensus(machine, system.fs) if census else None
    recorder = FrontierRecorder(snapshot=snapshot)
    events = []
    system.events.subscribe(lambda ts, ev: events.append(event_to_record(ts, ev)))
    system.events.subscribe(recorder.observe)
    oracle.execute(system, mode, recorder)
    images = {r.name: (r.visible.copy(), r.persisted.copy())
              for r in _pm_regions(machine)}
    taken = sum(f.state is not None for f in recorder.frontiers())
    return events, machine.clock.now, images, taken


@pytest.mark.parametrize("mode", ["gpm", "gpm-eadr"])
def test_taking_the_census_changes_nothing(mode):
    # The census is taken inside a run that goes on: snapshots must emit
    # no event, advance no clock and leave every image as it was.
    events, now, images, taken = _reference_run("kvs", Mode(mode), True)
    ref_events, ref_now, ref_images, untaken = _reference_run("kvs", Mode(mode), False)
    assert taken > 0 and untaken == 0
    assert events == ref_events and now == ref_now
    assert images.keys() == ref_images.keys()
    for name, (visible, persisted) in images.items():
        assert np.array_equal(visible, ref_images[name][0])
        assert np.array_equal(persisted, ref_images[name][1])


def test_durable_image_of_a_volatile_region_raises():
    machine = System().machine
    with pytest.raises(TypeError, match="volatile"):
        machine.durable_image(machine.alloc_dram("/dram/x", 64))
