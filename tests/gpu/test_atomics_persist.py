"""Atomics go through the metered persist path and survive crashes."""

import numpy as np

from repro.core.persist import persist_window


class TestAtomicPersistence:
    def test_atomic_add_then_persist_survives_crash(self, system):
        pm = system.machine.alloc_pm("pm", 4096)

        def kernel(ctx):
            ctx.atomic_add(pm, 0, 1, dtype=np.int64)
            ctx.persist()

        with persist_window(system):
            system.gpu.launch(kernel, 1, 64)
        assert int(pm.view(np.int64, 0, 1)[0]) == 64
        system.machine.crash()
        assert int(pm.view(np.int64, 0, 1)[0]) == 64

    def test_atomic_cas_and_max_persist(self, system):
        pm = system.machine.alloc_pm("pm", 4096)

        def kernel(ctx):
            ctx.atomic_max(pm, 0, ctx.global_id, dtype=np.int64)
            ctx.atomic_cas(pm, 8, 0, 42, dtype=np.int64)
            ctx.persist()

        with persist_window(system):
            system.gpu.launch(kernel, 1, 32)
        system.machine.crash()
        assert int(pm.view(np.int64, 0, 1)[0]) == 31
        assert int(pm.view(np.int64, 8, 1)[0]) == 42

    def test_unfenced_atomic_lost_without_eadr(self, system):
        """An atomic without a fence parks in the LLC and dies with it."""
        pm = system.machine.alloc_pm("pm", 4096)

        def kernel(ctx):
            ctx.atomic_add(pm, 0, 1, dtype=np.int64)

        # DDIO stays on: the drain at warp retirement stops at the LLC.
        system.gpu.launch(kernel, 1, 32)
        assert int(pm.view(np.int64, 0, 1)[0]) == 32
        system.machine.crash()
        assert int(pm.view(np.int64, 0, 1)[0]) == 0

    def test_atomic_traffic_is_metered(self, system):
        pm = system.machine.alloc_pm("pm", 4096)

        def kernel(ctx):
            ctx.atomic_add(pm, ctx.global_id * 8, 5, dtype=np.int64)
            ctx.persist()

        with persist_window(system):
            result = system.gpu.launch(kernel, 1, 32)
        acct = result.accounting
        # RMW: 8 B read and 8 B write per thread over the link.
        assert acct.host_read_bytes == 32 * 8
        assert acct.host_write_bytes == 32 * 8
        assert system.stats.pm_bytes_written == 32 * 8
