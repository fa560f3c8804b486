"""Optane model: segment merging, epochs, pattern-dependent timing."""

import numpy as np
import pytest

from repro.sim import Machine
from repro.sim.optane import merge_segment_lists


class TestMergeSegments:
    def test_empty(self):
        assert merge_segment_lists([], []) == ([], [])

    def test_disjoint_sorted(self):
        assert merge_segment_lists([0, 100], [10, 10]) == ([0, 100], [10, 10])

    def test_adjacent_merge(self):
        assert merge_segment_lists([0, 10], [10, 10]) == ([0], [20])

    def test_overlapping_merge(self):
        assert merge_segment_lists([0, 5], [10, 10]) == ([0], [15])

    def test_unsorted_input(self):
        assert merge_segment_lists([100, 0], [10, 10]) == ([0, 100], [10, 10])

    def test_contained_segment(self):
        assert merge_segment_lists([0, 2], [20, 4]) == ([0], [20])

    def test_gap_of_one_byte_not_merged(self):
        assert merge_segment_lists([0, 11], [10, 5]) == ([0, 11], [10, 5])


class TestWriteEpoch:
    def test_persists_functionally(self, machine):
        r = machine.alloc_pm("x", 1024)
        r.write_bytes(0, [3] * 100)
        machine.optane.write_epoch(r, [0], [100])
        assert (r.persisted_view(np.uint8, 0, 100) == 3).all()

    def test_zero_length_segments_free(self, machine):
        r = machine.alloc_pm("x", 1024)
        assert machine.optane.write_epoch(r, [0], [0]) == 0.0

    def test_time_scales_with_lines_touched(self, machine):
        r = machine.alloc_pm("x", 1 << 16)
        machine.optane.write_epoch(r, [0], [256])  # warm sequentiality
        t1 = machine.optane.write_epoch(r, [256], [256])
        t2 = machine.optane.write_epoch(r, [512], [1024])
        assert t2 == pytest.approx(4 * t1)

    def test_same_line_writes_combine_within_epoch(self, machine):
        r = machine.alloc_pm("x", 1024)
        machine.optane.write_epoch(r, [512], [256])  # warm sequentiality
        t = machine.optane.write_epoch(r, [768, 832, 896, 960], [64, 64, 64, 64])
        machine.optane.write_epoch(r, [0], [256])
        t_single = machine.optane.write_epoch(r, [256], [256])
        # merged into one full-line run: same cost as one 256 B write
        assert t == pytest.approx(t_single, rel=0.01)

    def test_stats_accounting(self, machine):
        r = machine.alloc_pm("x", 4096)
        machine.optane.write_epoch(r, [0], [100])
        assert machine.stats.pm_bytes_written == 100
        assert machine.stats.pm_bytes_written_internal == 256


class TestPatternBandwidths:
    """The Section 6.1 microbenchmark triple: 12.5 / 3.13 / 0.72 GB/s."""

    def _bw(self, grain, addresses):
        machine = Machine()
        r = machine.alloc_pm("x", max(addresses) + grain + 1)
        t = sum(machine.optane.write_epoch(r, [a], [grain]) for a in addresses)
        return grain * len(addresses) / t / 1e9

    def test_sequential_aligned(self):
        bw = self._bw(256, [i * 256 for i in range(2048)])
        assert bw == pytest.approx(12.5, rel=0.01)

    def test_sequential_unaligned_64b(self):
        bw = self._bw(64, [i * 64 for i in range(4096)])
        assert bw == pytest.approx(3.13, rel=0.02)

    def test_random(self):
        rng = np.random.default_rng(0)
        addrs = (rng.permutation(8192) * 64).tolist()
        bw = self._bw(64, addrs)
        assert bw == pytest.approx(0.72, rel=0.02)

    def test_ordering_seq_faster_than_unaligned_faster_than_random(self):
        seq = self._bw(256, [i * 256 for i in range(512)])
        unal = self._bw(64, [i * 64 for i in range(512)])
        rng = np.random.default_rng(1)
        rand = self._bw(64, (rng.permutation(512) * 64).tolist())
        assert seq > unal > rand


class TestFlushGrain:
    def test_matches_per_line_epochs(self, machine):
        r1 = machine.alloc_pm("a", 8192)
        r1.visible[:4096] = 9
        bulk = machine.optane.write_flush_grain(r1, 0, 4096, grain=64)
        m2 = Machine()
        r2 = m2.alloc_pm("b", 8192)
        r2.visible[:4096] = 9
        per_line = sum(m2.optane.write_epoch(r2, [i * 64], [64]) for i in range(64))
        assert bulk == pytest.approx(per_line, rel=0.1)
        assert (r1.persisted_view(np.uint8, 0, 4096) == 9).all()

    def test_random_flag_slower(self, machine):
        r = machine.alloc_pm("a", 8192)
        t_seq = machine.optane.write_flush_grain(r, 0, 4096, grain=64)
        t_rand = machine.optane.write_flush_grain(r, 0, 4096, grain=64, random=True)
        assert t_rand > 3 * t_seq

    def test_zero_size(self, machine):
        r = machine.alloc_pm("a", 128)
        assert machine.optane.write_flush_grain(r, 0, 0) == 0.0

    def test_bad_grain(self, machine):
        r = machine.alloc_pm("a", 128)
        with pytest.raises(ValueError):
            machine.optane.write_flush_grain(r, 0, 64, grain=0)


class TestFlushLines:
    def test_persists_each_line(self, machine):
        r = machine.alloc_pm("a", 1024)
        r.visible[:] = 5
        machine.optane.flush_lines(r, [0, 128, 512], 64)
        p = r.persisted_view(np.uint8)
        assert (p[0:64] == 5).all()
        assert (p[128:192] == 5).all()
        assert (p[512:576] == 5).all()
        assert (p[64:128] == 0).all()

    def test_scattered_lines_pay_random_penalty(self, machine):
        r = machine.alloc_pm("a", 1 << 20)
        t_spread = machine.optane.flush_lines(
            r, [i * 4096 for i in range(64)], 64
        )
        t_dense = machine.optane.flush_lines(
            r, [i * 64 for i in range(64)], 64
        )
        assert t_spread > 2 * t_dense

    def test_empty(self, machine):
        r = machine.alloc_pm("a", 128)
        assert machine.optane.flush_lines(r, [], 64) == 0.0


class TestStreamIdentity:
    """The sequentiality heuristic must key streams by :attr:`Region.token`
    (never reused), not ``id()`` (recycled by the allocator).  Regression:
    a new region allocated where a dead one lived could masquerade as a
    sequential continuation of the dead region's stream."""

    def test_tokens_are_unique_across_realloc(self, machine):
        r1 = machine.alloc_pm("x", 4096)
        token1 = r1.token
        machine.free(r1)
        del r1
        r2 = machine.alloc_pm("x", 4096)
        assert r2.token != token1
        assert r2.token > token1

    def test_freed_and_reallocated_region_is_cold(self, machine):
        from repro.sim import DEFAULT_CONFIG as cfg

        line_time = cfg.pm_xpline_bytes / cfg.pm_bw_seq_aligned
        cold = cfg.pm_random_penalty * line_time
        # Repeat to give CPython every chance to hand the new Region the
        # dead one's id(); under token keying the continuation write must
        # price as a cold random start every single time.
        for _ in range(32):
            r = machine.alloc_pm("alias", 4096)
            machine.optane.write_epoch(r, [0], [256])
            machine.free(r)
            del r
            r2 = machine.alloc_pm("alias", 4096)
            t = machine.optane.write_epoch(r2, [256], [256])
            assert t == pytest.approx(cold)
            machine.free(r2)
            del r2

    def test_same_region_continuation_still_warm(self, machine):
        from repro.sim import DEFAULT_CONFIG

        line_time = DEFAULT_CONFIG.pm_xpline_bytes / DEFAULT_CONFIG.pm_bw_seq_aligned
        r = machine.alloc_pm("x", 4096)
        machine.optane.write_epoch(r, [0], [256])
        assert machine.optane.write_epoch(r, [256], [256]) == pytest.approx(line_time)


class TestRead:
    def test_read_time_positive_and_counted(self, machine):
        t = machine.optane.read(4096)
        assert t > 0
        assert machine.stats.pm_bytes_read == 4096

    def test_random_read_slower(self, machine):
        assert machine.optane.read(1 << 20, random=True) > machine.optane.read(1 << 20)

    def test_negative_raises(self, machine):
        with pytest.raises(ValueError):
            machine.optane.read(-1)
