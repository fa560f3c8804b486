"""Property-based tests of the Optane model's invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Machine
from repro.sim.optane import merge_segments, merge_segments_grouped

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


class TestWriteEpochProperties:
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
