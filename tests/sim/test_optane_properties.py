"""Property-based tests of the Optane model's invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Machine, event_to_record
from repro.sim.optane import merge_segment_lists, merge_segments, merge_segments_grouped

segments = st.lists(
    st.tuples(st.integers(0, 4000), st.integers(1, 300)), min_size=1, max_size=40
)


class TestMergeSegmentsProperties:
    @given(segments)
    def test_output_sorted_and_disjoint(self, segs):
        starts, lengths = zip(*segs)
        ms, ml = merge_segments(np.array(starts), np.array(lengths))
        ends = ms + ml
        assert (ms[1:] > ends[:-1]).all()  # strictly disjoint, sorted

    @given(segments)
    def test_coverage_preserved(self, segs):
        covered = np.zeros(8192, dtype=bool)
        for s, l in segs:
            covered[s : s + l] = True
        starts, lengths = zip(*segs)
        ms, ml = merge_segments(np.array(starts), np.array(lengths))
        merged = np.zeros(8192, dtype=bool)
        for s, l in zip(ms.tolist(), ml.tolist()):
            merged[s : s + l] = True
        assert (covered == merged).all()

    @given(segments)
    def test_total_bytes_at_least_max_segment(self, segs):
        starts, lengths = zip(*segs)
        _, ml = merge_segments(np.array(starts), np.array(lengths))
        assert ml.sum() >= max(lengths)
        assert ml.sum() <= sum(lengths)


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


class TestWriteEpochProperties:
    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(0, 4000), st.integers(0, 300)), max_size=40),
           st.sampled_from([None, "same", "other"]), st.integers(0, 8000))
    def test_list_and_array_input_agree(self, segs, prior, prior_start):
        # The list core (forced for every size here) against the array core:
        # same epoch event, media time to the bit, persisted image and
        # stream state, after a prior epoch on the same region, another
        # region or none.
        outcomes = []
        for as_lists in (True, False):
            machine = Machine()
            region = machine.alloc_pm("x", 8192)
            other = machine.alloc_pm("y", 8192)
            region.visible[:] = np.arange(8192) % 251
            if prior is not None:
                machine.optane.write_epoch(region if prior == "same" else other,
                                           np.array([prior_start]), np.array([64]))
            records = []
            machine.events.subscribe(
                lambda ts, ev, records=records: records.append(event_to_record(ts, ev)))
            starts = [seg[0] for seg in segs]
            lengths = [seg[1] for seg in segs]
            if as_lists:
                machine.optane.LIST_EPOCH_SEGMENTS = len(segs)
                t = machine.optane.write_epoch(region, starts, lengths)
            else:
                t = machine.optane.write_epoch(region, np.array(starts, dtype=np.int64),
                                               np.array(lengths, dtype=np.int64))
            optane = machine.optane
            outcomes.append((t, type(t), records, region.persisted.tobytes(),
                             optane._last_line, optane._last_region == region.token))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=30)
    @given(segments)
    def test_persists_exactly_the_written_ranges(self, segs):
        machine = Machine()
        region = machine.alloc_pm("x", 8192)
        region.visible[:] = 1
        starts, lengths = zip(*segs)
        machine.optane.write_epoch(region, np.array(starts), np.array(lengths))
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
        t = machine.optane.write_epoch(region, np.array(starts), np.array(lengths))
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
