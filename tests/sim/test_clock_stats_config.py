"""Clock, stats counters, and SystemConfig behaviour."""

import pytest

from repro.sim import DEFAULT_CONFIG, MachineStats, SimClock, SystemConfig
from repro.sim.stats import WindowedStats


class TestClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        c = SimClock()
        c.advance(1.5)
        c.advance(0.5)
        assert c.now == 2.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1e-9)

    def test_span(self):
        c = SimClock()
        with c.span() as s:
            c.advance(3.0)
        assert s.elapsed == 3.0
        assert s.start == 0.0
        assert s.end == 3.0

    def test_span_live_elapsed(self):
        c = SimClock()
        with c.span() as s:
            c.advance(1.0)
            assert s.elapsed == 1.0


class TestStats:
    def test_snapshot_is_independent(self):
        s = MachineStats()
        snap = s.snapshot()
        s.pcie_bytes_to_host += 100
        assert snap.pcie_bytes_to_host == 0

    def test_delta_since(self):
        s = MachineStats()
        snap = s.snapshot()
        s.pm_bytes_written += 64
        s.system_fences += 2
        d = s.delta_since(snap)
        assert d.pm_bytes_written == 64
        assert d.system_fences == 2
        assert d.pcie_bytes_to_gpu == 0

    def test_windowed_bandwidths(self):
        w = WindowedStats(MachineStats(pcie_bytes_to_host=1000), elapsed=1e-6)
        assert w.pcie_write_bandwidth == pytest.approx(1e9)

    def test_windowed_zero_elapsed(self):
        w = WindowedStats(MachineStats(pcie_bytes_to_host=1000), elapsed=0.0)
        assert w.pcie_write_bandwidth == 0.0


class TestConfig:
    def test_default_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.pcie_bw = 1.0

    def test_with_overrides(self):
        cfg = DEFAULT_CONFIG.with_overrides(pcie_bw=1e9)
        assert cfg.pcie_bw == 1e9
        assert DEFAULT_CONFIG.pcie_bw != 1e9

    def test_amdahl_identity_at_one_thread(self):
        assert DEFAULT_CONFIG.cpu_persist_speedup(1) == pytest.approx(1.0)

    def test_amdahl_plateau_matches_figure3a(self):
        # Fig. 3a: CAP-mm plateaus around 1.47x
        assert DEFAULT_CONFIG.cpu_persist_speedup(64) == pytest.approx(1.46, abs=0.02)

    def test_amdahl_two_threads(self):
        # Fig. 3a: 2 threads -> 1.20x
        assert DEFAULT_CONFIG.cpu_persist_speedup(2) == pytest.approx(1.19, abs=0.02)

    def test_amdahl_monotone(self):
        speeds = [DEFAULT_CONFIG.cpu_persist_speedup(t) for t in (1, 2, 4, 8, 16, 32)]
        assert speeds == sorted(speeds)

    def test_amdahl_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            DEFAULT_CONFIG.cpu_persist_speedup(0)

    def test_parallel_fraction_complement(self):
        cfg = SystemConfig()
        total = cfg.cpu_persist_serial_fraction + cfg.cpu_persist_parallel_fraction
        assert total == pytest.approx(1.0)
