"""Oracle crash states judged from the census against crash replays.

:meth:`~repro.check.explorer.CrashExplorer.record` takes an image census of
its reference run, and :func:`~repro.check.explorer.explore_frontier`
judges a recorded event frontier by powering a fresh system up over the
census state (durable images, PM file namespace, observation prefix) and
recovering it, with no re-run.  That must decide exactly what an
``arm_at_frontier`` replay decides, for every seed-corpus target under
every mode its oracle declares, and under ``gpm-eadr`` for the logged-batch
targets, where the census overlays the LLC's dirty lines.  A disagreement
means recovery or an invariant reads state a real crash would lose.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.check import CrashExplorer, explore, make_oracle, parse_frontier
from repro.check import explorer as explorer_mod
from repro.check.census import CHUNK_BYTES, ImageCensus
from repro.check.explorer import explore_frontier
from repro.check.frontier import prune_frontiers
from repro.check.litmus import SEED_CORPUS
from repro.system import System
from repro.workloads.base import Mode

#: event frontiers judged both ways per (target, mode) in tier-1 (0: all)
FRONTIERS_PER_POINT = 6

#: logged-batch targets also checked under eADR
EADR_TARGETS = ("kvs", "kvs-delete", "db-update", "hashmap")

CASES = [(t, m.value) for t in SEED_CORPUS for m in make_oracle(t).modes]
CASES += [(t, Mode.GPM_EADR.value) for t in EADR_TARGETS]


def outcome(result) -> tuple:
    return (result.status, result.error,
            [(v.name, v.ok, v.detail) for v in result.verdicts])


def census_mismatches(target: str, mode: str,
                      max_frontiers: int = FRONTIERS_PER_POINT) -> list[str]:
    """``event:N`` specs whose census verdicts differ from a replay's."""
    recorded = CrashExplorer(target, Mode(mode)).record()
    events = [f for f in recorded if f.mechanism == "event"]
    assert events and all(f.state is not None for f in events)
    bad = []
    for frontier in prune_frontiers(events, max_frontiers):
        judged = explore_frontier(target, mode, frontier)
        replayed = explore_frontier(target, mode, replace(frontier, state=None))
        if outcome(judged) != outcome(replayed):
            bad.append(frontier.spec())
    return bad


@pytest.mark.parametrize("target,mode", CASES)
def test_census_verdicts_equal_crash_replays(target, mode):
    assert census_mismatches(target, mode) == []


# ---------------------------------------------------------------------------
# chunk sharing
# ---------------------------------------------------------------------------


def test_unchanged_state_shares_the_image_and_every_chunk():
    system = System()
    machine = system.machine
    big = system.fs.create("/pm/big", 3 * CHUNK_BYTES).region
    small = system.fs.create("/pm/small", 64).region
    census = ImageCensus(machine, system.fs)
    first = census()
    # Stores without a persist leave the durable image as it was.
    big.visible[:] = 7
    assert census() is first
    # A persist into the middle chunk copies that chunk alone.
    big.persist_range(CHUNK_BYTES + 5, 10)
    second = census()
    assert second is not first
    (_, old), (_, old_small) = first.regions
    (_, new), (_, new_small) = second.regions
    assert new[0] is old[0] and new[2] is old[2] and new[1] is not old[1]
    assert new_small is old_small
    assert second.region("fs:/pm/big")[CHUNK_BYTES + 5] == 7
    assert not new[1].flags.writeable
    # Persisting bytes the image already holds keeps every chunk shared.
    big.persist_range(CHUNK_BYTES, 4)
    big.visible[CHUNK_BYTES:CHUNK_BYTES + 4] = 0
    big.persist_range(CHUNK_BYTES, 4)
    big.persist_range(CHUNK_BYTES + 5, 10)
    assert census() is second


@pytest.mark.parametrize("mode", ["gpm", "gpm-eadr"])
def test_recorded_states_share_an_image_exactly_when_unchanged(mode):
    # Consecutive event frontiers with equal durable state hold the same
    # image object, so no persist in between costs no storage.
    events = [f for f in CrashExplorer("kvs", Mode(mode)).record()
              if f.mechanism == "event"]
    shared = 0
    for before, after in zip(events, events[1:]):
        a, b = before.state.image, after.state.image
        same = (a.files == b.files and a.region_names() == b.region_names()
                and all(np.array_equal(a.region(n), b.region(n))
                        for n in a.region_names()))
        assert same == (a is b), (before.spec(), after.spec())
        shared += a is b
    assert shared


def test_census_image_loads_into_a_fresh_system():
    events = [f for f in CrashExplorer("kvs", Mode.GPM).record()
              if f.mechanism == "event"]
    image = events[-1].state.image
    system = System()
    image.load_into(system)
    assert system.fs.files() == list(image.files)
    for name in image.region_names():
        region = system.machine.region(name)
        assert np.array_equal(region.persisted, image.region(name))
        assert np.array_equal(region.visible, image.region(name))


# ---------------------------------------------------------------------------
# which states replay
# ---------------------------------------------------------------------------


@pytest.fixture
def replays(monkeypatch):
    """Frontier specs that went through a replay."""
    seen = []
    real = explorer_mod._replay

    def spy(oracle, mode, frontier):
        seen.append(frontier.spec())
        return real(oracle, mode, frontier)

    monkeypatch.setattr(explorer_mod, "_replay", spy)
    return seen


def test_recorded_event_frontiers_are_judged_without_a_replay(replays):
    frontiers = CrashExplorer("ring", Mode.GPM).record()
    event = next(f for f in frontiers if f.mechanism == "event")
    threads = next(f for f in frontiers if f.mechanism == "threads")
    assert explore_frontier("ring", "gpm", event).status == "ok"
    assert replays == []
    assert explore_frontier("ring", "gpm", threads).status == "ok"
    assert replays == [threads.spec()]


def test_parsed_specs_replay(replays):
    result = explore_frontier("ring", "gpm", parse_frontier("event:3"))
    assert result.status == "ok" and replays == ["event:3"]
    explore_frontier("ring", "gpm", parse_frontier("threads:5"))
    assert replays == ["event:3", "threads:5"]


def test_a_census_state_is_never_judged_as_another_run():
    frontier = next(f for f in CrashExplorer("ring", Mode.GPM).record()
                    if f.state is not None)
    with pytest.raises(ValueError, match="recorded for ring under gpm"):
        explore_frontier("broken-demo", "gpm", frontier)


def test_parallel_exploration_equals_sequential():
    sequential = explore("kvs", Mode.GPM, max_frontiers=24, jobs=1)
    parallel = explore("kvs", Mode.GPM, max_frontiers=24, jobs=2)
    mechanisms = {r.frontier.mechanism for r in sequential.results}
    assert mechanisms == {"event", "threads"}
    assert parallel.results == sequential.results
    assert ([r.frontier.spec() for r in parallel.results]
            == [r.frontier.spec() for r in sequential.results])


def test_broken_demo_is_caught_from_the_census_and_by_replay(replays):
    report = explore("broken-demo", Mode.GPM, max_frontiers=0)
    caught = [r.frontier.spec() for r in report.violations]
    assert "event:4" in caught
    assert not set(caught) & set(replays)   # judged from the census
    replayed = explore_frontier("broken-demo", "gpm", parse_frontier("event:4"))
    census = next(r for r in report.violations
                  if r.frontier.spec() == "event:4")
    assert replayed.status == "violation"
    assert outcome(replayed) == outcome(census)
