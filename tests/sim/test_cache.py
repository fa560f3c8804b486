"""LLC/DDIO model: dirty tracking, flushes, eviction, eADR crash."""

import gc
import weakref
from collections import OrderedDict

import numpy as np
import pytest

from repro.sim import Machine, SystemConfig, cache
from repro.sim.cache import LastLevelCache
from repro.sim.crash import CrashInjector, SimulatedCrash
from repro.sim.events import LlcEvict, LlcFlush, LlcInstall
from repro.sim.memory import MemKind


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

    def test_install_past_region_end_is_rejected(self, machine):
        r = machine.alloc_pm("x", 1024)
        neighbour = machine.alloc_pm("y", 1024)
        machine.llc.install_writes(r, [0], [8])
        machine.llc.install_writes(neighbour, [0], [8])
        with pytest.raises(IndexError):
            machine.llc.install_writes(r, [1000], [64])
        with pytest.raises(IndexError):
            machine.llc.install_writes(r, [0, 1024], [8, 8])
        with pytest.raises(IndexError):
            machine.llc.install_writes(r, [0], [1024 + 20 * 64])
        assert machine.llc.dirty_lines(neighbour) == [0]

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
    """Dirty lines belong to one Region (its token), never to a name or id()."""

    def test_dirty_keys_use_region_tokens(self, machine):
        # Two live regions with the same line numbers are tracked apart.
        r1 = machine.alloc_pm("x", 1024)
        r2 = machine.alloc_pm("y", 1024)
        machine.llc.install_writes(r1, [0], [64])
        machine.llc.install_writes(r2, [0], [128])
        assert machine.llc.dirty_lines(r1) == [0]
        assert machine.llc.dirty_lines(r2) == [0, 1]
        machine.llc.flush_range(r1, 0, 1024)
        assert machine.llc.dirty_lines(r2) == [0, 1]
        machine.llc.drop_range(r2, 64, 64)
        assert machine.llc.dirty_lines(r2) == [0]
        assert len(machine.llc) == 1

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

    def test_free_releases_the_region(self, machine):
        # The cache keeps no reference to a freed region's buffers.
        r = machine.alloc_pm("x", 1024)
        machine.llc.install_writes(r, [0], [128])
        freed = weakref.ref(r)
        machine.free(r)
        del r
        gc.collect()
        assert freed() is None

    def test_free_drops_lines_before_name_reuse(self, machine):
        r1 = machine.alloc_pm("x", 1024)
        machine.llc.install_writes(r1, [0], [128])
        machine.free(r1)
        r2 = machine.alloc_pm("x", 1024)
        assert machine.llc.dirty_lines(r2) == []
        assert machine.llc.flush_range(r2, 0, 1024) == 0.0


class ReferenceLlc:
    """The original ``OrderedDict`` dirty set, kept as the reference model.

    Dirty lines are keyed ``(region.token, line)`` in LRU order (oldest
    first); each eviction pops one line and drains it as its own
    ``write_epoch``, and the eADR crash drain writes the lines back one by
    one in LRU order.  The streaming head write-through is the shipped
    helper, unchanged.  :class:`LastLevelCache` must be indistinguishable
    from this class - same events with timestamps, dirty sets, persisted
    bytes and Optane stream state, at every crash frontier.
    """

    def __init__(self, config, events, optane):
        self._events = events
        self._optane = optane
        self._line = config.cpu_cache_line_bytes
        self._capacity_lines = config.llc_ddio_bytes // self._line
        self._dirty = OrderedDict()

    def __len__(self):
        return len(self._dirty)

    def dirty_lines(self, region):
        return sorted(line for token, line in self._dirty if token == region.token)

    def install_writes(self, region, starts, lengths):
        if region.kind is not MemKind.PM:
            return
        starts = np.atleast_1d(np.asarray(starts, dtype=np.int64)).tolist()
        lengths = np.atleast_1d(np.asarray(lengths, dtype=np.int64)).tolist()
        if sum(lengths) > 2 * self._capacity_lines * self._line:
            starts, lengths = LastLevelCache._persist_all_but_tail(
                self, region, starts, lengths, self._capacity_lines * self._line)
        hits = fills = 0
        for start, length in zip(starts, lengths):
            if length <= 0:
                continue
            for line in range(start // self._line, (start + length - 1) // self._line + 1):
                key = (region.token, line)
                if key in self._dirty:
                    self._dirty.move_to_end(key)
                    hits += 1
                else:
                    self._dirty[key] = (region, line)
                    fills += 1
        if hits or fills:
            self._events.emit(LlcInstall(region=region.name, hits=hits, fills=fills))
        evicted = 0
        while len(self._dirty) > self._capacity_lines:
            _, (victim, line) = self._dirty.popitem(last=False)
            self._write_back(victim, line)
            evicted += 1
        if evicted:
            self._events.emit(LlcEvict(lines=evicted))

    def _write_back(self, region, line):
        start = line * self._line
        self._optane.write_epoch(region, [start], [min(self._line, region.size - start)])

    def flush_range(self, region, offset, size):
        if region.kind is not MemKind.PM or size <= 0:
            return 0.0
        lines = range(offset // self._line, (offset + size - 1) // self._line + 1)
        hits = [line for line in lines if (region.token, line) in self._dirty]
        if not hits:
            return 0.0
        self._events.emit(LlcFlush(region=region.name, lines=len(hits)))
        for line in hits:
            del self._dirty[(region.token, line)]
        return self._optane.flush_lines(region, [line * self._line for line in hits],
                                        self._line)

    def drop_range(self, region, offset, size):
        if region.kind is not MemKind.PM or size <= 0:
            return
        for line in range(offset // self._line, (offset + size - 1) // self._line + 1):
            self._dirty.pop((region.token, line), None)

    def flush_region(self, region):
        return self.flush_range(region, 0, region.size)

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
            m.llc = ReferenceLlc(m.config, m.events, m.optane)
        self.events: list[str] = []
        self.machine.events.subscribe(lambda ts, ev: self.events.append(repr((ts, ev))))
        #: Region token -> "name#generation", so both rigs' tokens compare.
        self.labels: dict[int, str] = {}
        self.regions = {name: self._alloc(name) for name in _REGION_SIZES}

    def _alloc(self, name: str):
        region = self.machine.alloc_pm(name, _REGION_SIZES[name])
        self.labels[region.token] = f"{name}#{len(self.labels)}"
        return region

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

    def apply(self, op) -> None:
        """Run one step of a :func:`_random_ops` sequence."""
        kind, name, *args = op
        llc = self.machine.llc
        if kind == "install":
            self.install(name, *args)
        elif kind == "flush":
            llc.flush_range(self.regions[name], *args)
        elif kind == "drop":
            llc.drop_range(self.regions[name], *args)
        else:  # "realloc": free, then allocate the same name again
            self.machine.free(self.regions[name])
            self.regions[name] = self._alloc(name)

    def state(self):
        llc, optane = self.machine.llc, self.machine.optane
        return (
            self.events,
            len(llc),
            {name: llc.dirty_lines(r) for name, r in self.regions.items()},
            optane._last_line,
            self.labels.get(optane._last_region),
            {name: r.persisted.tobytes() for name, r in self.regions.items()},
        )


def _pair(persistency: str = "strict") -> tuple[_Rig, _Rig]:
    return _Rig(persistency, reference=False), _Rig(persistency, reference=True)


def _random_ops(seed: int, steps: int = 60) -> list[tuple]:
    """A random mix of installs, range flushes and drops, and reallocations.

    Installs carry one to three segments, some zero-length and some
    overlapping the previous segment; flushes and drops cover arbitrary
    (possibly empty) sub-ranges.
    """
    rng = np.random.default_rng(seed)
    names = list(_REGION_SIZES)
    ops = []
    for _ in range(steps):
        name = names[int(rng.integers(len(names)))]
        size = _REGION_SIZES[name]
        roll = rng.random()
        if roll < 0.65:
            segments, data = [], []
            for _ in range(int(rng.integers(1, 4))):
                if segments and rng.random() < 0.25:
                    prev, prev_len = segments[-1]
                    start = prev + int(rng.integers(0, max(prev_len, 1)))
                else:
                    start = int(rng.integers(0, size))
                # Mostly a few lines; sometimes more than the whole window,
                # which takes the streaming write-through.
                cap = min(320 if rng.random() < 0.85 else 1400, size - start)
                length = 0 if rng.random() < 0.1 else int(rng.integers(1, cap + 1))
                segments.append((start, length))
                data.append(rng.integers(0, 256, length, dtype=np.uint8))
            ops.append(("install", name, segments, data))
        elif roll < 0.95:
            # Whole-region and region-edge ranges are as likely as inner ones.
            offset = 0 if rng.random() < 0.3 else int(rng.integers(0, size))
            length = (size - offset if rng.random() < 0.3
                      else int(rng.integers(0, size - offset + 1)))
            ops.append(("flush" if roll < 0.8 else "drop", name, offset, length))
        else:
            ops.append(("realloc", name))
    return ops


def _frontiers(ops, persistency: str) -> int:
    """How many frontier events a crash-free run of ``ops`` emits."""
    rig = _Rig(persistency, reference=False)
    count = [0]

    def tally(_ts, event):
        count[0] += type(event).frontier_kind is not None

    rig.machine.events.subscribe(tally)
    for op in ops:
        rig.apply(op)
    return count[0]


@pytest.fixture
def small_log(monkeypatch):
    """Shrink the dirty-set log so short sequences compact it many times.

    Also lower the element-by-element install limit, so installs of a few
    lines take the slice and gather paths too.
    """
    monkeypatch.setattr(cache, "_MIN_LOG", 8)
    monkeypatch.setattr(cache, "_LOOP_LINES", 2)


class TestBatchedEvictionMatchesPerLine:
    """Differential check of :class:`LastLevelCache` against ReferenceLlc."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("persistency", ["strict", "eadr"])
    def test_random_install_sequences(self, seed, persistency, small_log):
        rigs = _pair(persistency)
        for op in _random_ops(seed):
            for rig in rigs:
                rig.apply(op)
            assert rigs[0].state() == rigs[1].state()
        # The eADR drain writes the survivors back in LRU order, so its
        # event order checks the order of the whole dirty set.
        for rig in rigs:
            rig.machine.crash()
        assert rigs[0].state() == rigs[1].state()
        assert rigs[0].machine.stats.llc_evictions > 0

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("persistency", ["strict", "eadr"])
    def test_random_sequences_crashed_at_every_kth_frontier(self, seed, persistency,
                                                            small_log):
        ops = _random_ops(100 + seed)
        total = _frontiers(ops, persistency)
        step = max(1, total // 12)
        for ordinal in range(seed % step, total, step):
            rigs = _pair(persistency)
            crashed_at = []
            for rig in rigs:
                CrashInjector(rig.machine).arm_at_frontier(ordinal)
                crashed_at.append(None)
                for i, op in enumerate(ops):
                    try:
                        rig.apply(op)
                    except SimulatedCrash:
                        crashed_at[-1] = i
            assert crashed_at[0] is not None
            assert crashed_at[0] == crashed_at[1]
            assert rigs[0].state() == rigs[1].state()

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
