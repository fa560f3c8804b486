"""Property-based tests of the Optane model's invariants, and a
differential check of its epoch core against the reference model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CrashInjector, Machine, SimulatedCrash, SystemConfig, event_to_record
from repro.sim.cache import LastLevelCache
from repro.sim.events import GpuPmWrite, OptaneEpoch
from repro.sim.optane import OptaneModel, merge_segment_lists, merge_segments_grouped


def merge_segments(starts, lengths):
    """The original numpy merge, kept as the reference merge.

    Merges overlapping/adjacent ``[start, start+length)`` segments and
    returns ``(starts, lengths)`` arrays of the merged runs, sorted by
    address.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if starts.size == 0:
        return starts, lengths
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    ends = starts + lengths[order]
    # A new run begins wherever a segment starts beyond the running maximum
    # end of all previous segments.
    run_end = np.maximum.accumulate(ends)
    new_run = np.ones(starts.size, dtype=bool)
    new_run[1:] = starts[1:] > run_end[:-1]
    run_ids = np.cumsum(new_run) - 1
    n_runs = int(run_ids[-1]) + 1
    run_starts = starts[new_run]
    run_ends = np.zeros(n_runs, dtype=np.int64)
    np.maximum.at(run_ends, run_ids, ends)
    return run_starts, run_ends - run_starts


class ReferenceOptane(OptaneModel):
    """The original array arithmetic of ``write_epoch`` and ``flush_lines``,
    kept as the reference model.

    ``write_epoch`` drops non-positive segments, merges the rest with
    :func:`merge_segments` and counts XPLine touches and random starts in
    numpy; ``write_epochs`` is one such epoch per group, and
    ``flush_lines`` the numpy line drain.  :class:`OptaneModel` must be
    indistinguishable from this class: same events with timestamps, media
    seconds to the bit, persisted bytes and stream state.
    """

    def _random_starts(self, region, first_lines, last_lines):
        prev_last = np.empty(first_lines.size, dtype=np.int64)
        same_stream = self._last_region == region.token and self._last_line is not None
        prev_last[0] = self._last_line if same_stream else -(10**9)
        prev_last[1:] = last_lines[:-1]
        return (first_lines != prev_last) & (first_lines != prev_last + 1)

    def write_epoch(self, region, starts, lengths, grain="epoch"):
        starts = np.atleast_1d(np.asarray(starts, dtype=np.int64))
        lengths = np.atleast_1d(np.asarray(lengths, dtype=np.int64))
        nonempty = lengths > 0
        starts, lengths = starts[nonempty], lengths[nonempty]
        if starts.size == 0:
            return 0.0
        run_starts, run_lengths = merge_segments(starts, lengths)
        region.persist_ranges(run_starts, run_lengths)
        first_lines = run_starts // self._line
        last_lines = (run_starts + run_lengths - 1) // self._line
        touches = int((last_lines - first_lines + 1).sum())
        random_starts = int(np.count_nonzero(
            self._random_starts(region, first_lines, last_lines)))
        time = (
            touches + random_starts * (self._config.pm_random_penalty - 1.0)
        ) * self._line_time
        self._last_line = int(last_lines[-1])
        self._last_region = region.token
        self._events.emit(OptaneEpoch(
            region=region.name, logical_bytes=int(run_lengths.sum()),
            media_bytes=touches * self._line, segments=run_starts.size,
            random_starts=random_starts, media_time=time, grain=grain,
        ))
        return time

    def write_epochs(self, region, starts, lengths, bounds, arrival_event=None,
                     before_group=None, grain="epoch"):
        times = []
        for g in range(len(bounds) - 1):
            if before_group is not None:
                before_group(g)
            lo, hi = bounds[g], bounds[g + 1]
            times.append(self.write_epoch(region, starts[lo:hi], lengths[lo:hi], grain))
            if arrival_event is not None:
                self._events.emit(arrival_event(nbytes=sum(lengths[lo:hi])))
        return times

    def flush_lines(self, region, line_starts, line_size):
        line_starts = np.sort(np.asarray(line_starts, dtype=np.int64))
        if line_starts.size == 0:
            return 0.0
        lengths = np.minimum(line_size, region.size - line_starts)
        region.persist_ranges(line_starts, lengths)
        xlines = line_starts // self._line
        n_random = int(np.count_nonzero(self._random_starts(region, xlines, xlines)))
        touches = line_starts.size
        time = (touches + n_random * (self._config.pm_random_penalty - 1.0)) * self._line_time
        self._last_line = int(xlines[-1])
        self._last_region = region.token
        self._events.emit(OptaneEpoch(
            region=region.name, logical_bytes=int(lengths.sum()),
            media_bytes=touches * self._line, segments=touches,
            random_starts=n_random, media_time=time, grain="line_drain",
        ))
        return time


segments = st.lists(
    st.tuples(st.integers(0, 4000), st.integers(1, 300)), min_size=1, max_size=40
)


class TestMergeSegmentsProperties:
    @given(segments)
    def test_output_sorted_and_disjoint(self, segs):
        starts, lengths = zip(*segs)
        ms, ml = merge_segment_lists(list(starts), list(lengths))
        assert all(s > prev + n for prev, n, s in zip(ms, ml, ms[1:]))  # strictly disjoint, sorted

    @given(segments)
    def test_coverage_preserved(self, segs):
        covered = np.zeros(8192, dtype=bool)
        for s, l in segs:
            covered[s : s + l] = True
        starts, lengths = zip(*segs)
        ms, ml = merge_segment_lists(list(starts), list(lengths))
        merged = np.zeros(8192, dtype=bool)
        for s, l in zip(ms, ml):
            merged[s : s + l] = True
        assert (covered == merged).all()

    @given(segments)
    def test_total_bytes_at_least_max_segment(self, segs):
        starts, lengths = zip(*segs)
        _, ml = merge_segment_lists(list(starts), list(lengths))
        assert sum(ml) >= max(lengths)
        assert sum(ml) <= sum(lengths)


    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4000),
                              st.integers(0, 300)), max_size=40))
    def test_grouped_merge_equals_per_group_merge(self, segs):
        # Groups may be empty and segments zero-length, as warp drains are.
        segs = sorted(segs, key=lambda seg: seg[0])
        g = np.array([seg[0] for seg in segs], dtype=np.int64)
        s = np.array([seg[1] for seg in segs], dtype=np.int64)
        l = np.array([seg[2] for seg in segs], dtype=np.int64)
        rs, rl, rg = merge_segments_grouped(s, l, g, 4301)
        for group in range(4):
            ms, ml = merge_segments(s[g == group], l[g == group])
            assert rs[rg == group].tolist() == ms.tolist()
            assert rl[rg == group].tolist() == ml.tolist()


    @given(st.lists(st.tuples(st.integers(0, 4000), st.integers(0, 300)),
                    max_size=40))
    def test_list_merge_equals_grouped_merge(self, segs):
        # Unsorted, overlapping and zero-length, as one warp round's stores.
        starts = [seg[0] for seg in segs]
        lengths = [seg[1] for seg in segs]
        rs, rl, _ = merge_segments_grouped(
            np.array(starts, dtype=np.int64), np.array(lengths, dtype=np.int64),
            np.zeros(len(segs), dtype=np.int64), 4301)
        assert merge_segment_lists(starts, lengths) == (rs.tolist(), rl.tolist())


def _optane_rig(reference, prior, prior_start, size=8192):
    """A machine on the shipped or the reference Optane model, its event
    log, and a region after a prior epoch on it, another region or none."""
    machine = Machine()
    if reference:
        machine.optane = ReferenceOptane(machine.config, machine.events)
    region = machine.alloc_pm("x", size)
    other = machine.alloc_pm("y", size)
    region.visible[:] = np.arange(size) % 251
    if prior is not None:
        machine.optane.write_epoch(region if prior == "same" else other,
                                   [prior_start], [64])
    records = []
    machine.events.subscribe(lambda ts, ev: records.append(event_to_record(ts, ev)))
    return machine, region, records


def _outcome(times, machine, region, records):
    optane = machine.optane
    return (times, [type(t) for t in times], records, region.persisted.tobytes(),
            optane._last_line, optane._last_region == region.token)


priors = st.sampled_from([None, "same", "other"])


class TestWriteEpochProperties:
    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(0, 4000), st.integers(0, 300)), max_size=40),
           priors, st.integers(0, 8000))
    def test_list_and_array_input_agree(self, segs, prior, prior_start):
        # The list core against the reference array arithmetic: same epoch
        # event, media time to the bit, persisted image and stream state,
        # after a prior epoch on the same region, another region or none.
        outcomes = []
        for reference in (False, True):
            machine, region, records = _optane_rig(reference, prior, prior_start)
            t = machine.optane.write_epoch(region, [seg[0] for seg in segs],
                                           [seg[1] for seg in segs])
            outcomes.append(_outcome([t], machine, region, records))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=60)
    @given(st.lists(st.lists(st.tuples(st.integers(0, 4000), st.integers(0, 300)),
                             max_size=12), max_size=6),
           priors, st.integers(0, 8000))
    def test_grouped_core_matches_reference(self, groups, prior, prior_start):
        # Merged groups as the drains deliver them: empty groups and
        # zero-length runs included, each group's arrival event after its
        # epoch and a marker event before it.
        starts, lengths, bounds = [], [], [0]
        for group in groups:
            run_s, run_l = merge_segment_lists([seg[0] for seg in group],
                                               [seg[1] for seg in group])
            starts += run_s
            lengths += run_l
            bounds.append(len(starts))
        outcomes = []
        for reference in (False, True):
            machine, region, records = _optane_rig(reference, prior, prior_start)
            times = machine.optane.write_epochs(
                region, starts, lengths, bounds, arrival_event=GpuPmWrite,
                before_group=lambda g, m=machine: m.events.emit(GpuPmWrite(nbytes=-g)))
            outcomes.append(_outcome(times, machine, region, records))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=60)
    @given(st.sets(st.integers(0, 127), max_size=40), priors, st.integers(0, 8000))
    def test_flush_lines_matches_reference(self, lines, prior, prior_start):
        # A region whose last cache line is short (24 B).
        outcomes = []
        for reference in (False, True):
            machine, region, records = _optane_rig(reference, prior, prior_start,
                                                   size=127 * 64 + 24)
            t = machine.optane.flush_lines(region, [line * 64 for line in lines], 64)
            outcomes.append(_outcome([t], machine, region, records))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=30)
    @given(segments)
    def test_persists_exactly_the_written_ranges(self, segs):
        machine = Machine()
        region = machine.alloc_pm("x", 8192)
        region.visible[:] = 1
        starts, lengths = zip(*segs)
        machine.optane.write_epoch(region, list(starts), list(lengths))
        expected = np.zeros(8192, dtype=bool)
        for s, l in segs:
            expected[s : s + l] = True
        assert (region.persisted.astype(bool) == expected).all()

    @settings(max_examples=30)
    @given(segments)
    def test_time_positive_and_bounded(self, segs):
        machine = Machine()
        region = machine.alloc_pm("x", 8192)
        starts, lengths = zip(*segs)
        t = machine.optane.write_epoch(region, list(starts), list(lengths))
        assert t > 0
        # upper bound: every byte its own random line touch
        cfg = machine.config
        worst = sum(lengths) * (256 / cfg.pm_bw_seq_aligned) * cfg.pm_random_penalty
        assert t <= worst + 1e-12

    @settings(max_examples=20)
    @given(st.integers(1, 4096), st.integers(1, 64))
    def test_flush_grain_time_scales_with_touches(self, size, grain_lines):
        machine = Machine()
        region = machine.alloc_pm("x", 8192)
        grain = 64
        t = machine.optane.write_flush_grain(region, 0, size, grain=grain)
        touches = -(-size // grain)
        line_time = 256 / machine.config.pm_bw_seq_aligned
        assert t == touches * line_time


#: Installs ``(region, start, length)`` into an 8-line DDIO window: bursts
#: that evict lines of both regions, interleaved, and ``b``'s short last
#: line (``b`` is 17 lines and 24 B).
_INSTALLS = [("a", 0, 320), ("b", 64, 200), ("a", 640, 128), ("b", 1000, 112),
             ("a", 320, 384), ("b", 0, 64), ("a", 1024, 512)]


def _llc_rig(reference, persistency):
    machine = Machine(SystemConfig().with_overrides(llc_ddio_bytes=8 * 64),
                      persistency=persistency)
    if reference:
        machine.optane = ReferenceOptane(machine.config, machine.events)
        machine.llc = LastLevelCache(machine.config, machine.events, machine.optane)
    regions = {"a": machine.alloc_pm("a", 24 * 64), "b": machine.alloc_pm("b", 17 * 64 + 24)}
    for region in regions.values():
        region.visible[:] = np.arange(region.size) % 251 + 1
    log = []
    machine.events.subscribe(lambda ts, ev: log.append(repr((ts, ev))))
    return machine, regions, log


def _installs_then_crash(machine, regions):
    """The installs, then a power failure unless a crash fired among them."""
    try:
        for name, start, length in _INSTALLS:
            machine.llc.install_writes(regions[name], [start], [length])
    except SimulatedCrash:
        return
    machine.crash()


class TestLlcDrainsMatchReference:
    """Eviction and eADR crash drains on the epoch core against the reference."""

    @pytest.mark.parametrize("persistency", ["strict", "eadr"])
    def test_crash_at_every_epoch(self, persistency):
        machine, regions, _ = _llc_rig(False, persistency)
        kinds = []
        machine.events.subscribe(
            lambda ts, ev: kinds.append(type(ev)) if type(ev).frontier_kind else None)
        for name, start, length in _INSTALLS:
            machine.llc.install_writes(regions[name], [start], [length])
        epochs = [i for i, kind in enumerate(kinds) if kind is OptaneEpoch]
        assert len(epochs) == 20
        for ordinal in [None, *epochs]:
            sides = []
            for reference in (False, True):
                machine, regions, log = _llc_rig(reference, persistency)
                if ordinal is not None:
                    CrashInjector(machine).arm_at_frontier(ordinal)
                _installs_then_crash(machine, regions)
                optane = machine.optane
                sides.append((log, machine.crash_count, optane._last_line,
                              {n: r.persisted.tobytes() for n, r in regions.items()}))
            assert sides[0] == sides[1]
            assert sides[0][1] == 1
