"""System composition and top-level package surface."""

import numpy as np
import pytest

import repro
from repro import System
from repro.sim import DEFAULT_CONFIG


class TestSystem:
    def test_default_wiring(self):
        system = System()
        assert system.config is DEFAULT_CONFIG
        assert system.gpu.machine is system.machine
        assert system.cpu.machine is system.machine
        assert system.fs.machine is system.machine
        assert system.dma.machine is system.machine
        assert not system.eadr

    def test_custom_config_propagates(self):
        cfg = DEFAULT_CONFIG.with_overrides(pcie_bw=1e9)
        system = System(cfg)
        assert system.gpu.config.pcie_bw == 1e9
        assert system.machine.pcie._config.pcie_bw == 1e9

    def test_clock_and_stats_are_machine_views(self):
        system = System()
        system.clock.advance(1.0)
        assert system.machine.clock.now == 1.0
        system.stats.syscalls += 1
        assert system.machine.stats.syscalls == 1

    def test_crash_delegates(self):
        system = System()
        pm = system.machine.alloc_pm("p", 64)
        pm.write_bytes(0, [1] * 8)
        system.crash()
        assert not pm.visible.any()
        assert system.machine.crash_count == 1

    def test_eadr_flag(self):
        assert System(persistency="eadr").eadr
        assert System(persistency="eadr").machine.eadr

    def test_version_exported(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_independent_systems_do_not_share_state(self):
        a, b = System(), System()
        a.machine.alloc_pm("x", 64)
        assert not b.machine.has_region("x")
        a.clock.advance(5.0)
        assert b.clock.now == 0.0
