"""LLC/DDIO model: dirty tracking, flushes, eviction, eADR crash."""

import numpy as np
import pytest

from repro.sim import Machine, SystemConfig
from repro.sim.cache import LastLevelCache
from repro.sim.crash import CrashInjector, SimulatedCrash
from repro.sim.events import LlcEvict


class TestInstallAndFlush:
    def test_install_tracks_dirty_lines(self, machine):
        r = machine.alloc_pm("x", 1024)
        machine.llc.install_writes(r, [0], [100])
        assert machine.llc.dirty_lines(r) == [0, 1]

    def test_install_on_dram_is_ignored(self, machine):
        r = machine.alloc_dram("x", 1024)
        machine.llc.install_writes(r, [0], [100])
        assert len(machine.llc) == 0

    def test_flush_range_persists_and_clears(self, machine):
        r = machine.alloc_pm("x", 1024)
        r.write_bytes(0, [7] * 100)
        machine.llc.install_writes(r, [0], [100])
        t = machine.llc.flush_range(r, 0, 100)
        assert t > 0
        assert machine.llc.dirty_lines(r) == []
        assert (r.persisted_view(np.uint8, 0, 100) == 7).all()

    def test_flush_clean_range_is_free(self, machine):
        r = machine.alloc_pm("x", 1024)
        assert machine.llc.flush_range(r, 0, 1024) == 0.0

    def test_flush_whole_line_even_for_partial_write(self, machine):
        r = machine.alloc_pm("x", 1024)
        r.write_bytes(0, [7] * 8)
        r.write_bytes(32, [9] * 8)  # same line, newer data
        machine.llc.install_writes(r, [0], [8])
        machine.llc.flush_range(r, 0, 8)
        # write-back persists the whole current line
        assert (r.persisted_view(np.uint8, 32, 8) == 9).all()

    def test_drop_range_clears_without_media(self, machine):
        r = machine.alloc_pm("x", 1024)
        machine.llc.install_writes(r, [0], [128])
        machine.llc.drop_range(r, 0, 128)
        assert len(machine.llc) == 0

    def test_hit_counting(self, machine):
        r = machine.alloc_pm("x", 1024)
        machine.llc.install_writes(r, [0], [64])
        machine.llc.install_writes(r, [0], [64])
        assert machine.stats.llc_ddio_fills == 1
        assert machine.stats.llc_ddio_hits == 1


class TestEviction:
    def test_capacity_eviction_persists_lru(self):
        cfg = SystemConfig().with_overrides(llc_ddio_bytes=4 * 64)
        machine = Machine(cfg)
        r = machine.alloc_pm("x", 1024)
        r.visible[:] = 5
        for line in range(6):
            machine.llc.install_writes(r, [line * 64], [64])
        assert len(machine.llc) == 4
        # first two lines were evicted and are now durable
        assert (r.persisted_view(np.uint8, 0, 128) == 5).all()
        assert machine.stats.llc_evictions == 2

    def test_streaming_fast_path_persists_head(self):
        cfg = SystemConfig().with_overrides(llc_ddio_bytes=1024)
        machine = Machine(cfg)
        r = machine.alloc_pm("x", 1 << 16)
        r.visible[:] = 3
        machine.llc.install_writes(r, [0], [1 << 16])
        # head written through; only the tail (<= capacity) stays cached
        assert len(machine.llc) <= 1024 // 64
        assert (r.persisted_view(np.uint8, 0, (1 << 16) - 1024) == 3).all()

    def test_streaming_fast_path_counts_lines_not_segments(self):
        # Regression: the write-through evict event reported one line per
        # *segment*; a 64 KiB stream through a 1 KiB DDIO window writes
        # 63 KiB (1008 cache lines) through, not 1.
        cfg = SystemConfig().with_overrides(llc_ddio_bytes=1024)
        machine = Machine(cfg)
        r = machine.alloc_pm("x", 1 << 16)
        machine.llc.install_writes(r, [0], [1 << 16])
        assert machine.stats.llc_evictions == ((1 << 16) - 1024) // 64

    def test_streaming_fast_path_partial_line_segments(self):
        # Two unaligned head segments spanning 2 lines each -> 4 lines.
        cfg = SystemConfig().with_overrides(llc_ddio_bytes=256)
        machine = Machine(cfg)
        r = machine.alloc_pm("x", 1 << 16)
        machine.llc.install_writes(r, [32, 4096 + 32], [576, 576])
        # tail_bytes=256 kept from the stream's end; everything earlier is
        # written through; each 576 B run spans ceil boundaries of 64 B lines
        evicted = machine.stats.llc_evictions
        # head = total (1152) - 256 = 896 bytes across two unaligned runs;
        # exact line count depends on the split, but it must far exceed the
        # 2 the per-segment accounting reported, and match the model:
        assert evicted >= 896 // 64
        assert evicted > 2


class TestCrash:
    def test_crash_without_eadr_loses_dirty_lines(self, machine):
        r = machine.alloc_pm("x", 1024)
        r.write_bytes(0, [9] * 64)
        machine.llc.install_writes(r, [0], [64])
        machine.crash()
        assert not r.visible[:64].any()

    def test_crash_with_eadr_drains_dirty_lines(self):
        machine = Machine(persistency="eadr")
        r = machine.alloc_pm("x", 1024)
        r.write_bytes(0, [9] * 64)
        machine.llc.install_writes(r, [0], [64])
        machine.crash()
        assert (r.visible[:64] == 9).all()


class TestTokenKeying:
    """Dirty lines are keyed by Region.token, never by id()."""

    def test_dirty_keys_use_region_tokens(self, machine):
        r = machine.alloc_pm("x", 1024)
        machine.llc.install_writes(r, [0], [64])
        assert (r.token, 0) in machine.llc._dirty

    def test_leaked_region_lines_never_alias_a_reallocation(self):
        # A mapping dropped without Machine.free leaves its dirty lines
        # behind.  Tokens are monotonic and never reused, so the stale keys
        # can never match a fresh region with the same line numbers - the
        # fresh region starts clean and its flushes are free.
        machine = Machine(SystemConfig())
        r1 = machine.alloc_pm("leak", 1024)
        machine.llc.install_writes(r1, [0], [256])
        stale = len(machine.llc)
        assert stale
        del machine._regions["leak"]
        del r1
        for i in range(8):
            r2 = machine.alloc_pm(f"fresh{i}", 1024)
            assert machine.llc.dirty_lines(r2) == []
            assert machine.llc.flush_range(r2, 0, 1024) == 0.0
            machine.free(r2)
            del r2
        # The stale lines are still attributed to the leaked region only.
        assert len(machine.llc) == stale

    def test_free_drops_lines_before_name_reuse(self, machine):
        r1 = machine.alloc_pm("x", 1024)
        machine.llc.install_writes(r1, [0], [128])
        machine.free(r1)
        r2 = machine.alloc_pm("x", 1024)
        assert machine.llc.dirty_lines(r2) == []
        assert machine.llc.flush_range(r2, 0, 1024) == 0.0


class PerLineLlc(LastLevelCache):
    """Reference eviction path: pop one line, drain it as its own epoch.

    The batched ``write_epochs`` drain in :class:`LastLevelCache` must be
    indistinguishable from this loop - same events, persisted bytes, dirty
    order and Optane stream state, at every crash frontier.
    """

    def _write_back(self, region, line):
        start = line * self._line
        size = min(self._line, region.size - start)
        self._optane.write_epoch(region, [start], [size])

    def _evict_over_capacity(self):
        evicted = 0
        while len(self._dirty) > self._capacity_lines:
            _, (region, line) = self._dirty.popitem(last=False)
            self._write_back(region, line)
            evicted += 1
        if evicted:
            self._events.emit(LlcEvict(lines=evicted))

    def crash(self, eadr):
        if eadr:
            for region, line in list(self._dirty.values()):
                self._write_back(region, line)
        self._dirty.clear()


#: Three PM regions; ``b`` ends in a partial (24 B) cache line.
_REGION_SIZES = {"a": 24 * 64, "b": 17 * 64 + 24, "c": 30 * 64}
_LLC_LINES = 8


class _Rig:
    """A machine with a tiny DDIO window, its regions and its event log."""

    def __init__(self, persistency: str, reference: bool) -> None:
        cfg = SystemConfig().with_overrides(llc_ddio_bytes=_LLC_LINES * 64)
        self.machine = Machine(cfg, persistency=persistency)
        if reference:
            m = self.machine
            m.llc = PerLineLlc(m.config, m.events, m.optane)
        self.events: list[str] = []
        self.machine.events.subscribe(lambda ts, ev: self.events.append(repr((ts, ev))))
        self.regions = {name: self.machine.alloc_pm(name, size)
                        for name, size in _REGION_SIZES.items()}

    def install(self, name: str, segments, data) -> None:
        region = self.regions[name]
        for (start, length), chunk in zip(segments, data):
            region.visible[start:start + length] = chunk
        starts, lengths = zip(*segments)
        self.machine.llc.install_writes(region, list(starts), list(lengths))

    def lines(self, name: str, first: int, count: int) -> None:
        """Install ``count`` whole lines of ``name`` from line ``first``, tagged."""
        region = self.regions[name]
        size = min(count * 64, region.size - first * 64)
        tag = (ord(name) + first) % 251 + 1
        self.install(name, [(first * 64, size)], [np.full(size, tag, np.uint8)])

    def state(self):
        tokens = {r.token: name for name, r in self.regions.items()}
        optane = self.machine.optane
        return (
            self.events,
            [(region.name, line) for region, line in self.machine.llc._dirty.values()],
            optane._last_line,
            tokens.get(optane._last_region),
            {name: r.persisted.tobytes() for name, r in self.regions.items()},
        )


def _pair(persistency: str = "strict") -> tuple[_Rig, _Rig]:
    return _Rig(persistency, reference=False), _Rig(persistency, reference=True)


class TestBatchedEvictionMatchesPerLine:
    """Differential check of the batched eviction drain against PerLineLlc."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("persistency", ["strict", "eadr"])
    def test_random_install_sequences(self, seed, persistency):
        rng = np.random.default_rng(seed)
        rigs = _pair(persistency)
        names = list(_REGION_SIZES)
        for _ in range(60):
            name = names[int(rng.integers(len(names)))]
            size = _REGION_SIZES[name]
            segments, data = [], []
            for _ in range(int(rng.integers(1, 4))):
                start = int(rng.integers(0, size))
                length = int(rng.integers(1, min(320, size - start) + 1))
                segments.append((start, length))
                data.append(rng.integers(0, 256, length, dtype=np.uint8))
            flush = rng.random() < 0.1
            for rig in rigs:
                rig.install(name, segments, data)
                if flush:
                    rig.machine.llc.flush_range(rig.regions[name], 0, size // 2)
            assert rigs[0].state() == rigs[1].state()
        for rig in rigs:
            rig.machine.crash()
        assert rigs[0].state() == rigs[1].state()
        assert rigs[0].machine.stats.llc_evictions > 0

    def test_burst_crossing_region_runs(self):
        rigs = _pair()
        for rig in rigs:
            # LRU order a0 b0 a1 c0 c1 b1 a2 b17 (b17 is the partial line).
            for name, line in [("a", 0), ("b", 0), ("a", 1), ("c", 0),
                               ("c", 1), ("b", 1), ("a", 2), ("b", 17)]:
                rig.lines(name, line, 1)
            rig.lines("c", 10, _LLC_LINES)  # evicts all eight in one burst
        new, ref = rigs
        assert new.state() == ref.state()
        assert new.machine.stats.llc_evictions == _LLC_LINES
        assert new.regions["b"].persisted[17 * 64:].tobytes() == \
            new.regions["b"].visible[17 * 64:].tobytes()

    def test_burst_continuing_previous_stream(self):
        rigs = _pair()
        for rig in rigs:
            rig.lines("a", 0, _LLC_LINES)
            rig.lines("a", 8, 2)  # burst 1 evicts a0 a1
            rig.lines("a", 10, 2)  # burst 2 starts at a2: same XPLine as a1
        new, ref = rigs
        assert new.state() == ref.state()
        epochs = [e for e in new.events if "OptaneEpoch" in e]
        assert len(epochs) == 4
        # a2 continues the stream a1 left off, so no random-start penalty.
        assert "random_starts=0" in epochs[2]

    @pytest.mark.parametrize("persistency", ["strict", "eadr"])
    def test_crash_at_every_epoch_inside_a_burst(self, persistency):
        def prepared():
            rigs = _pair(persistency)
            for rig in rigs:
                for name, line in [("b", 15), ("a", 3), ("a", 4), ("c", 7),
                                   ("b", 17), ("c", 8), ("a", 5), ("b", 2)]:
                    rig.lines(name, line, 1)
            return rigs

        burst = _LLC_LINES
        for ordinal in range(burst):
            rigs = prepared()
            for rig in rigs:
                injector = CrashInjector(rig.machine)
                injector.arm_at_frontier(ordinal)
                with pytest.raises(SimulatedCrash) as crash:
                    rig.lines("c", 20, burst)
                assert crash.value.frontier_kind == "optane-epoch"
                assert crash.value.frontier_ordinal == ordinal
            new, ref = rigs
            assert new.state() == ref.state()
            # Lines 0..ordinal of the burst persisted before the crash; with
            # eADR the rest drained from the LLC, without it they are lost.
            b = new.regions["b"].persisted
            assert (b[15 * 64:16 * 64] != 0).all()
            assert (b[17 * 64:] != 0).all() == (ordinal >= 4 or persistency == "eadr")
