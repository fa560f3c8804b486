"""Crash semantics around freeing and re-allocating named PM regions."""

import numpy as np
import pytest

from repro.sim import MemKind


class TestFreeReallocCrash:
    def test_realloc_does_not_resurrect_persisted_image(self, machine):
        """A freed region's persisted bytes must not reappear in a new
        allocation that reuses the name."""
        pm = machine.alloc_pm("state", 4096)
        pm.write_bytes(0, np.full(4096, 0xAB, dtype=np.uint8))
        pm.persist_range(0, 4096)
        machine.free(pm)
        fresh = machine.alloc_pm("state", 4096)
        assert not fresh.visible.any()
        machine.crash()
        assert not fresh.visible.any()
        assert not fresh.persisted.any()

    def test_stale_llc_lines_dropped_on_free(self, machine):
        """Dirty LLC lines of a freed PM region neither write back into the
        media nor survive into a same-named re-allocation."""
        pm = machine.alloc_pm("state", 4096)
        pm.write_bytes(0, np.full(4096, 0xCD, dtype=np.uint8))
        machine.llc.install_writes(pm, [0], [4096])
        assert len(machine.llc) > 0
        machine.free(pm)
        assert len(machine.llc) == 0
        fresh = machine.alloc_pm("state", 4096)
        machine.crash()  # would drain dirty lines under eADR; none remain
        assert not fresh.visible.any()

    def test_stale_lines_not_drained_by_eadr_crash(self):
        from repro.sim import Machine

        machine = Machine(persistency="eadr")
        pm = machine.alloc_pm("state", 4096)
        pm.write_bytes(0, np.full(4096, 0x77, dtype=np.uint8))
        machine.llc.install_writes(pm, [0], [4096])
        machine.free(pm)
        fresh = machine.alloc_pm("state", 4096)
        machine.crash()  # eADR drains the LLC - stale lines must be gone
        assert not fresh.persisted.any()

    def test_free_then_realloc_is_a_fresh_region(self, machine):
        pm = machine.alloc_pm("state", 1024)
        machine.free(pm)
        fresh = machine.alloc_pm("state", 2048)
        assert fresh is not pm
        assert fresh.size == 2048
        assert fresh.kind is MemKind.PM

    def test_free_unknown_region_raises(self, machine):
        pm = machine.alloc_pm("state", 1024)
        machine.free(pm)
        with pytest.raises(KeyError):
            machine.free(pm)
