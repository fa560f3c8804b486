"""Machine composition: allocation, write routing, DDIO, crash."""

import numpy as np
import pytest

from repro.sim import CrashInjector, Machine, MemKind, SimulatedCrash, SystemConfig
from repro.sim.events import OptaneEpoch, WarpDrain


class TestAllocation:
    def test_alloc_and_lookup(self, machine):
        r = machine.alloc_pm("a", 128)
        assert machine.region("a") is r
        assert machine.has_region("a")

    def test_duplicate_name_rejected(self, machine):
        machine.alloc_pm("a", 128)
        with pytest.raises(ValueError):
            machine.alloc_dram("a", 128)

    def test_free(self, machine):
        r = machine.alloc_hbm("a", 128)
        machine.free(r)
        assert not machine.has_region("a")

    def test_free_unknown_raises(self, machine):
        r = machine.alloc_hbm("a", 128)
        machine.free(r)
        with pytest.raises(KeyError):
            machine.free(r)

    def test_kinds(self, machine):
        assert machine.alloc_pm("p", 8).kind is MemKind.PM
        assert machine.alloc_dram("d", 8).kind is MemKind.DRAM
        assert machine.alloc_hbm("h", 8).kind is MemKind.HBM


class TestIoWriteRouting:
    def test_ddio_on_parks_in_llc(self, machine):
        r = machine.alloc_pm("p", 1024)
        r.write_bytes(0, [1] * 64)
        t = machine.io_write_arrival(r, [0], [64])
        assert t == 0.0
        assert machine.llc.dirty_lines(r) == [0]
        assert r.unpersisted_bytes() == 64

    def test_ddio_off_goes_to_media(self, machine):
        machine.set_ddio(False)
        r = machine.alloc_pm("p", 1024)
        r.write_bytes(0, [1] * 64)
        t = machine.io_write_arrival(r, [0], [64])
        assert t > 0.0
        assert r.unpersisted_bytes() == 0
        assert machine.stats.pm_bytes_written_by_gpu == 64

    def test_dram_target_is_untracked(self, machine):
        r = machine.alloc_dram("d", 1024)
        assert machine.io_write_arrival(r, [0], [64]) == 0.0
        assert machine.stats.dram_bytes_written == 64

    def test_hbm_target_rejected(self, machine):
        r = machine.alloc_hbm("h", 1024)
        with pytest.raises(ValueError):
            machine.io_write_arrival(r, [0], [64])


#: (run_starts, run_lengths, run_groups) for four arrivals: plain runs, a
#: zero-length run, an empty group, and a run spanning several XPLines.
GROUPED_RUNS = ([0, 256, 64, 512, 1024], [64, 128, 0, 32, 600], [0, 0, 1, 1, 3])
GROUP_ROUTES = ["ddio-on", "ddio-off", "adaptive", "dram", "positive-only"]


def _route_machine(route):
    machine = Machine(persistency="adaptive" if route == "adaptive" else None)
    if route == "adaptive":
        machine.persistency.window_begin(machine)
    if route in ("ddio-off", "positive-only"):
        machine.set_ddio(False)
    kind = MemKind.DRAM if route == "dram" else MemKind.PM
    region = machine.alloc("r", 4096, kind)
    region.write_bytes(0, np.arange(4096) % 251)
    log = []
    machine.events.subscribe(lambda ts, ev: log.append((ts, repr(ev))))
    return machine, region, log


#: Eight groups of two runs over a 4 KiB region, three or four cache lines
#: each; group 5 rewrites group 4's lines.  An 8-line DDIO window overflows
#: from the third group on.
BURST_RUNS = (
    [32, 256, 544, 800, 1056, 1312, 1568, 1824, 2080, 2336, 2080, 2336,
     3104, 3360, 3616, 3872],
    [96, 64] * 8,
    [g for g in range(8) for _ in range(2)],
)


def _small_llc_rig(persistency=None, llc_lines=8):
    cfg = SystemConfig().with_overrides(llc_ddio_bytes=llc_lines * 64)
    machine = Machine(cfg, persistency=persistency)
    if persistency == "adaptive":
        machine.persistency.window_begin(machine)
    region = machine.alloc_pm("r", 4096)
    region.write_bytes(0, np.arange(4096) % 251)
    log = []
    machine.events.subscribe(lambda ts, ev: log.append((ts, repr(ev))))
    return machine, region, log


def _rig_state(machine, region, log):
    optane = machine.optane
    return (log, machine.llc.dirty_lines(region), len(machine.llc),
            region.persisted.tobytes(), region.visible.tobytes(),
            optane._last_line, optane._last_region == region.token)


def _bounds(groups):
    """Group bounds of runs listed with ascending group ids."""
    return np.searchsorted(groups, np.arange(max(groups) + 2)).tolist()


def _grouped_and_sequential(make_rig, runs, before, arm=None):
    """Run ``runs`` as one grouped call and as sequential calls.

    ``before(machine, log, group)`` runs ahead of each group on both
    sides; ``arm(machine)``, when given, arms a crash before the call.
    Returns both sides' ``(times, last group begun, state)``; ``times`` is
    ``None`` when the call crashed.
    """
    starts, lengths, groups = runs
    bounds = _bounds(groups)
    n_groups = len(bounds) - 1
    sides = []
    for grouped in (True, False):
        machine, region, log = make_rig()
        if arm is not None:
            arm(machine)
        times, seen = None, []

        def hook(g, machine=machine, log=log, seen=seen):
            seen.append(g)
            before(machine, log, g)

        try:
            if grouped:
                times = machine.io_write_arrival_groups(
                    region, starts, lengths, bounds, before_group=hook)
            else:
                times = []
                for g in range(n_groups):
                    hook(g)
                    lo, hi = bounds[g], bounds[g + 1]
                    times.append(machine.io_write_arrival(region, starts[lo:hi],
                                                          lengths[lo:hi]))
        except SimulatedCrash:
            times = None  # a crashed call returns nothing
        sides.append((times, seen[-1], _rig_state(machine, region, log)))
    return sides


def _is(entry, event_name):
    return entry[0] != "group" and entry[1].startswith(event_name + "(")


def _mark_group(machine, log, g):
    log.append(("group", g))
    machine.clock.advance(1e-6)


class TestGroupedArrivals:
    @pytest.mark.parametrize("route", GROUP_ROUTES)
    def test_matches_sequential_arrivals(self, route):
        starts, lengths, groups = GROUPED_RUNS
        if route == "positive-only":
            # Only non-empty groups of positive runs.
            starts = [s for s, n in zip(starts, lengths) if n > 0]
            lengths = [n for n in lengths if n > 0]
            groups = [0, 0, 1, 2]
        bounds = _bounds(groups)
        ref, ref_region, ref_log = _route_machine(route)
        ref_times = []
        for g in range(len(bounds) - 1):
            ref_log.append(("group", g))
            lo, hi = bounds[g], bounds[g + 1]
            ref_times.append(ref.io_write_arrival(ref_region, starts[lo:hi], lengths[lo:hi]))
        got, region, log = _route_machine(route)
        times = got.io_write_arrival_groups(
            region, starts, lengths, bounds,
            before_group=lambda g: log.append(("group", g)))
        assert times == ref_times
        assert log == ref_log
        if region.persisted is not None:
            assert np.array_equal(region.persisted, ref_region.persisted)
        assert len(got.llc) == len(ref.llc)

    def test_hbm_target_rejected_before_any_group(self, machine):
        r = machine.alloc_hbm("h", 1024)
        seen = []
        with pytest.raises(ValueError):
            machine.io_write_arrival_groups(r, [0], [64], [0, 1],
                                            before_group=seen.append)
        assert seen == []

    def test_capacity_overflow_between_groups(self):
        got, ref = _grouped_and_sequential(_small_llc_rig, BURST_RUNS, _mark_group)
        assert got == ref
        log = got[2][0]
        evict = next(i for i, e in enumerate(log) if _is(e, "LlcEvict"))
        later = [e for e in log[evict:] if e[0] == "group"]
        assert later, "the eviction burst must land between two groups"
        assert any(_is(e, "LlcInstall") for e in log[log.index(later[0]):])

    def test_adaptive_paths_interleave(self):
        # Mean warp-drain segment sizes observed before each group: the EMA
        # crosses the 256 B XPLine threshold both ways inside the call.
        observed = [[8], [4096], [8] * 6, [2048], [8] * 8, [8], [4096], [8] * 8]

        def drains(machine, log, g):
            _mark_group(machine, log, g)
            for nbytes in observed[g]:
                machine.events.emit(WarpDrain(region="r", segments=1, nbytes=nbytes))

        got, ref = _grouped_and_sequential(
            lambda: _small_llc_rig("adaptive", llc_lines=64), BURST_RUNS, drains)
        assert got == ref
        times, _, (log, dirty, *_rest) = got
        assert [t > 0 for t in times] == [False, True, False, True,
                                          False, False, True, False]
        # Every staged line before the last direct group was flushed; only
        # the last group's lines are still dirty.
        assert dirty == [56, 57, 60, 61]
        # The direct group after a staged one flushes the backlog first.
        marks = [i for i, e in enumerate(log) if e[0] == "group"]
        direct = log[marks[1]:marks[2]]
        flush = next(i for i, e in enumerate(direct) if _is(e, "LlcFlush"))
        write = next(i for i, e in enumerate(direct) if _is(e, "GpuPmWrite"))
        assert flush < write

    def test_eadr_crash_at_each_eviction_epoch(self):
        machine, region, log = _small_llc_rig("eadr")
        frontiers = []
        machine.events.subscribe(lambda ts, ev: frontiers.append(type(ev))
                                 if type(ev).frontier_kind else None)
        starts, lengths, groups = BURST_RUNS
        machine.io_write_arrival_groups(region, starts, lengths, _bounds(groups))
        epochs = [i for i, kind in enumerate(frontiers) if kind is OptaneEpoch]
        assert len(epochs) > 8
        for ordinal in epochs:
            got, ref = _grouped_and_sequential(
                lambda: _small_llc_rig("eadr"), BURST_RUNS, _mark_group,
                arm=lambda m: CrashInjector(m).arm_at_frontier(ordinal))
            assert got[0] is None, "the crash must fire inside the call"
            assert got == ref


class TestCpuPaths:
    def test_cpu_store_dirties_llc(self, machine):
        r = machine.alloc_pm("p", 1024)
        machine.cpu_store_arrival(r, 0, 64)
        assert machine.llc.dirty_lines(r) == [0]

    def test_cpu_flush_persists(self, machine):
        r = machine.alloc_pm("p", 1024)
        r.write_bytes(0, [4] * 64)
        machine.cpu_store_arrival(r, 0, 64)
        t = machine.cpu_flush(r, 0, 64)
        assert t > 0
        assert r.unpersisted_bytes() == 0

    def test_nt_store_bypasses_cache(self, machine):
        r = machine.alloc_pm("p", 1024)
        r.write_bytes(0, [4] * 64)
        t = machine.cpu_nt_store_arrival(r, [0], [64])
        assert t > 0
        assert len(machine.llc) == 0
        assert r.unpersisted_bytes() == 0

    def test_cpu_store_to_hbm_rejected(self, machine):
        r = machine.alloc_hbm("h", 64)
        with pytest.raises(ValueError):
            machine.cpu_store_arrival(r, 0, 8)

    def test_nt_store_to_hbm_rejected(self, machine):
        r = machine.alloc_hbm("h", 64)
        with pytest.raises(ValueError, match="not HBM"):
            machine.cpu_nt_store_arrival(r, [0], [8])
        assert machine.stats.dram_bytes_written == 0


#: Segments reaching outside a 4 KiB region: past its end, before its
#: start, and one good segment beside a bad one.
OUT_OF_RANGE = {"past-end": ([4090], [64]), "before-start": ([-64], [32]),
                "one-of-two": ([0, 4064], [64, 64])}
EDGE_ROUTES = ["ddio-on", "ddio-off", "adaptive", "eadr", "nt-store", "write-epoch"]


class TestOutOfRangeSegments:
    """The public write edge rejects segments outside the region before
    any effect: no event, no persisted byte, no dirty line anywhere."""

    @pytest.mark.parametrize("route", EDGE_ROUTES)
    @pytest.mark.parametrize("segments", list(OUT_OF_RANGE))
    def test_rejected_before_any_effect(self, route, segments):
        machine = Machine(persistency={"adaptive": "adaptive", "eadr": "eadr"}.get(route))
        if route == "adaptive":
            machine.persistency.window_begin(machine)
        if route in ("ddio-off", "nt-store", "write-epoch"):
            machine.set_ddio(False)
        neighbour = machine.alloc_pm("a", 4096)
        region = machine.alloc_pm("b", 4096)
        neighbour.visible[:] = 1
        region.visible[:] = 2
        machine.llc.install_writes(neighbour, [0], [8])
        log = []
        machine.events.subscribe(lambda ts, ev: log.append(ev))
        with pytest.raises(IndexError, match="'b'"):
            if route == "nt-store":
                machine.cpu_nt_store_arrival(region, *OUT_OF_RANGE[segments])
            elif route == "write-epoch":
                machine.optane.write_epoch(region, *OUT_OF_RANGE[segments])
            else:
                machine.io_write_arrival(region, *OUT_OF_RANGE[segments])
        assert log == []
        assert not region.persisted.any()
        assert machine.llc.dirty_lines(region) == []
        assert machine.llc.dirty_lines(neighbour) == [0]


class TestDdioToggle:
    def test_default_on(self, machine):
        assert machine.ddio_enabled

    def test_toggle(self, machine):
        machine.set_ddio(False)
        assert not machine.ddio_enabled
        machine.set_ddio(True)
        assert machine.ddio_enabled


class TestCrash:
    def test_crash_resets_all_regions(self, machine):
        pm = machine.alloc_pm("p", 64)
        hbm = machine.alloc_hbm("h", 64)
        pm.write_bytes(0, [1] * 8)
        hbm.write_bytes(0, [1] * 8)
        machine.crash()
        assert not pm.visible.any()
        assert hbm.lost
        assert machine.crash_count == 1

    def test_crash_reenables_ddio(self, machine):
        machine.set_ddio(False)
        machine.crash()
        assert machine.ddio_enabled

    def test_drop_volatile_regions(self, machine):
        machine.alloc_pm("p", 64)
        machine.alloc_hbm("h", 64)
        machine.crash()
        machine.drop_volatile_regions()
        assert machine.has_region("p")
        assert not machine.has_region("h")

    def test_background_persist_requires_eadr(self, machine):
        r = machine.alloc_pm("p", 64)
        with pytest.raises(RuntimeError):
            machine.background_persist(r, 0, 8)

    def test_background_persist_on_eadr(self):
        machine = Machine(persistency="eadr")
        r = machine.alloc_pm("p", 64)
        r.write_bytes(0, [2] * 8)
        machine.background_persist(r, 0, 8)
        assert r.unpersisted_bytes() == 0
