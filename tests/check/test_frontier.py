"""Frontier taxonomy: recording, spec parsing, deterministic pruning."""

import pytest

from repro.check import Frontier, FrontierRecorder, format_frontier, parse_frontier, prune_frontiers
from repro.check.frontier import UNFENCED_WINDOW
from repro.sim.events import Crash, HbmWrite, SystemFence, WarpDrain


class TestSpecs:
    def test_roundtrip_event(self):
        f = parse_frontier("event:17")
        assert (f.mechanism, f.value) == ("event", 17)
        assert f.spec() == "event:17"

    def test_roundtrip_threads(self):
        f = parse_frontier("threads:113")
        assert (f.mechanism, f.value) == ("threads", 113)
        assert f.kind == UNFENCED_WINDOW

    @pytest.mark.parametrize("spec", ["fence:3", "event", "event:", "event:x",
                                      "event:-1", ""])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_frontier(spec)

    def test_format_mentions_spec_and_kind(self):
        text = format_frontier(Frontier("event", 4, "warp-drain", "warp_drain"))
        assert "event:4" in text
        assert "warp-drain" in text


class TestRecorder:
    def test_tags_frontier_events_only(self):
        rec = FrontierRecorder()
        rec.observe(0.0, SystemFence())
        rec.observe(0.0, HbmWrite(nbytes=64))   # not a frontier
        rec.observe(0.0, WarpDrain())
        frontiers = rec.frontiers()
        assert [(f.mechanism, f.value, f.kind) for f in frontiers] == [
            ("event", 0, "fence"), ("event", 1, "warp-drain")]

    def test_stops_at_crash(self):
        rec = FrontierRecorder()
        rec.observe(0.0, SystemFence())
        rec.observe(0.0, Crash())
        rec.observe(0.0, SystemFence())  # post-crash: ignored
        assert rec.event_count == 1

    def test_windows_sample_first_middle_last(self):
        rec = FrontierRecorder(window_samples=3)
        for _ in range(10):
            rec.advance(32)  # distinct cumulative counts 32..320
        rec.observe(0.0, SystemFence())
        threads = [f for f in rec.frontiers() if f.mechanism == "threads"]
        assert len(threads) == 3
        values = [f.value for f in threads]
        assert values[0] == 32 and values[-1] == 320
        assert all(f.kind == UNFENCED_WINDOW for f in threads)

    def test_duplicate_counts_collapse(self):
        rec = FrontierRecorder()
        rec.advance(8)
        rec.advance(0)  # same cumulative count: not a new state
        threads = [f for f in rec.frontiers() if f.mechanism == "threads"]
        assert [f.value for f in threads] == [8]

    def test_passive_injector_interface(self):
        # the GPU engine only touches .advance and .cuts_warp
        rec = FrontierRecorder()
        assert rec.cuts_warp(32) is False
        rec.advance(100)  # never raises


class TestPruning:
    def _make(self, kind, n):
        return [Frontier("event", i, kind) for i in range(n)]

    def test_budget_covers_everything(self):
        fs = self._make("fence", 5)
        assert prune_frontiers(fs, 10) == fs
        assert prune_frontiers(fs, 0) == fs  # 0 = unlimited

    def test_every_kind_survives(self):
        fs = self._make("fence", 40) + self._make("warp-drain", 40) + \
            self._make("mark", 2)
        kept = prune_frontiers(fs, 12)
        assert len(kept) <= 12
        assert {f.kind for f in kept} == {"fence", "warp-drain", "mark"}

    def test_first_and_last_of_each_kind_kept(self):
        fs = self._make("fence", 50)
        kept = prune_frontiers(fs, 8)
        values = [f.value for f in kept]
        assert values[0] == 0 and values[-1] == 49

    def test_tight_budget_still_bounded(self):
        fs = (self._make("fence", 9) + self._make("warp-drain", 5)
              + self._make("mark", 2) + self._make("dma", 1))
        kept = prune_frontiers(fs, 5)
        assert len(kept) == 5
        assert {f.kind for f in kept} == {"fence", "warp-drain", "mark", "dma"}

    def test_more_kinds_than_budget_keeps_one_each(self):
        fs = sum((self._make(k, 3) for k in "abcdef"), [])
        kept = prune_frontiers(fs, 4)
        # the 1-per-kind floor wins over the cap: all six kinds represented
        assert len(kept) == 6
        assert {f.kind for f in kept} == set("abcdef")

    def test_deterministic(self):
        fs = self._make("fence", 100) + self._make("warp-drain", 30)
        assert prune_frontiers(fs, 16) == prune_frontiers(list(fs), 16)

    def test_preserves_recording_order(self):
        fs = self._make("warp-drain", 20) + self._make("fence", 20)
        kept = prune_frontiers(fs, 10)
        order = {id(f): i for i, f in enumerate(fs)}
        indices = [order[id(f)] for f in kept]
        assert indices == sorted(indices)
