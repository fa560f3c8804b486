"""The host-trajectory memo: a warm memo changes no output, any changed input misses."""

import hashlib

import numpy as np
import pytest

from repro.experiments import runner
from repro.experiments.diskcache import result_to_record
from repro.sim import CrashInjector, SimulatedCrash
from repro.sim.memory import MemKind
from repro.workloads import (
    BfsConfig,
    BlackScholes,
    CfdSolver,
    GraphBfs,
    Hotspot,
    Mode,
    Srad,
    SradConfig,
    hostmemo,
    make_system,
)
from repro.workloads.base import ModeDriver, PersistentBuffer
from repro.workloads.hostmemo import HostTrajectory

#: the benchmark's direct-path modes, plus the two LLC-bound ones
MODES = ("gpm", "cap-mm", "gpm-epoch", "gpm-relaxed", "gpm-adaptive",
         "gpm-eadr", "cap-fs")

SMALL = {
    "HS": lambda: Hotspot(n=32, steps_per_iteration=2),
    "CFD": lambda: CfdSolver(n=24, steps_per_iteration=2),
    "BLK": lambda: BlackScholes(n_options=4096),
    "SRAD": lambda: Srad(SradConfig(n=32, iterations=3)),
    "BFS": lambda: GraphBfs(BfsConfig(rows=8, cols=24, shortcut_fraction=0.02)),
}


@pytest.fixture(autouse=True)
def _cold_memo():
    hostmemo.clear()
    yield
    hostmemo.clear()


def observed_run(workload, mode: Mode):
    """(result record, event-stream digest, PM image digest) of one run."""
    system = make_system(mode)
    events = hashlib.sha256()
    system.events.subscribe(lambda ts, ev: events.update(repr((ts, ev)).encode()))
    result = workload.run(mode, system=system)
    image = hashlib.sha256()
    for region in system.machine.regions:
        if region.kind is MemKind.PM:
            image.update(region.name.encode())
            image.update(region.persisted.tobytes())
            image.update(region.visible.tobytes())
    return result_to_record(result), events.hexdigest(), image.hexdigest()


def _entries() -> int:
    return sum(len(steps) for steps in hostmemo._memo.values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_warm_memo_changes_no_output(name):
    make = SMALL[name]
    make().run(Mode.GPM)  # fills the memo from another mode's cell
    entries = _entries()
    assert entries
    for mode in map(Mode, MODES):
        warm = observed_run(make(), mode)
        assert _entries() == entries, "a warm run recomputed a step"
        runner.clear_cache()
        assert not hostmemo._memo
        cold = observed_run(make(), mode)
        assert warm == cold, f"{name} under {mode.value}"


def _record(workload, mode=Mode.GPM):
    return result_to_record(workload.run(mode))


@pytest.mark.parametrize("base, changed", [
    (SMALL["HS"], lambda: Hotspot(n=24, steps_per_iteration=2)),
    (SMALL["HS"], lambda: Hotspot(n=32, steps_per_iteration=3)),
    (SMALL["CFD"], lambda: CfdSolver(n=24, steps_per_iteration=1)),
    (SMALL["BLK"], lambda: BlackScholes(n_options=4096, seed=10)),
    (SMALL["SRAD"], lambda: Srad(SradConfig(n=32, iterations=3, seed=24))),
    (SMALL["BFS"], lambda: GraphBfs(BfsConfig(rows=8, cols=24,
                                              shortcut_fraction=0.02, seed=18))),
], ids=["hs-n", "hs-steps", "cfd-steps", "blk-seed", "srad-seed", "bfs-seed"])
def test_changed_input_misses(base, changed):
    base().run(Mode.GPM)
    before = set(hostmemo._memo)
    warm = _record(changed())
    assert set(hostmemo._memo) - before, "the changed input reused a trajectory"
    hostmemo.clear()
    assert warm == _record(changed())


def test_bfs_resume_and_kernel_engine_bypass_memo(monkeypatch):
    make = SMALL["BFS"]
    make().run(Mode.GPM)  # a warm fresh trajectory
    system = make_system(Mode.GPM)
    injector = CrashInjector(system.machine)
    injector.arm_at_frontier(40)
    with pytest.raises(SimulatedCrash):
        make().run(Mode.GPM, system=system)
    system.machine.drop_volatile_regions()
    buf = PersistentBuffer.reopen(ModeDriver(system, Mode.GPM), "/pm/bfs.state")
    assert int(buf.durable_view(np.uint32, 0, 1)[0]) > 1  # crashed mid-search

    def no_memo(self, index, compute):
        raise AssertionError("the memo was consulted")

    monkeypatch.setattr(HostTrajectory, "step", no_memo)
    resumed = make()
    resumed.run(Mode.GPM, system=system, resume_buffer=buf)
    assert resumed.verify()
    kernel = GraphBfs(BfsConfig(rows=8, cols=24, shortcut_fraction=0.02,
                                engine="kernel"))
    kernel.run(Mode.GPM)
    assert kernel.verify()


def test_entries_reject_in_place_writes():
    hs = SMALL["HS"]()
    hs.run(Mode.GPM)
    SMALL["BFS"]().run(Mode.GPM)
    arrays = [x for steps in hostmemo._memo.values() for out in steps.values()
              for x in out if isinstance(x, np.ndarray)]
    assert arrays
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    with pytest.raises(ValueError):
        hs.grid.temp[0, 0] = 0.0


def test_clear_cache_and_lru_bound():
    SMALL["SRAD"]().run(Mode.GPM)
    assert hostmemo._memo
    runner.clear_cache()
    assert not hostmemo._memo

    keys = []
    for i in range(hostmemo.TRAJECTORIES + 3):
        t = HostTrajectory("lru", i)
        keys.append(t.key)
        t.step(0, lambda: (np.zeros(2),))
        assert len(hostmemo._memo) <= hostmemo.TRAJECTORIES
    assert list(hostmemo._memo) == keys[-hostmemo.TRAJECTORIES:]
    # a hit refreshes the oldest trajectory, so a newcomer evicts the next one
    oldest = len(keys) - hostmemo.TRAJECTORIES
    calls = []
    HostTrajectory("lru", oldest).step(0, lambda: calls.append(1) or (np.zeros(2),))
    assert not calls
    HostTrajectory("lru", "new").step(0, lambda: (np.zeros(2),))
    assert keys[oldest] in hostmemo._memo
    assert keys[oldest + 1] not in hostmemo._memo
