"""Hierarchical Coalesced Logging: layout, atomicity, coalescing."""

import numpy as np
import pytest

from repro.core import (
    GpmError,
    LogEmpty,
    LogFull,
    chunks_needed,
    entry_chunks,
    gpmlog_create_hcl,
    persist_window,
)
from repro.core.hcl import _STRIPE, HclLog
from repro.gpu.warp import scalar_lane, vectorized_for
from repro.sim import event_to_record


class TestEntryChunks:
    def test_exact_multiple(self):
        c = entry_chunks(np.arange(4, dtype=np.uint32))
        assert c.size == 4

    def test_padding(self):
        c = entry_chunks(b"abcdef")  # 6 bytes -> 2 chunks
        assert c.size == 2
        assert c.view(np.uint8)[:6].tobytes() == b"abcdef"

    def test_empty_rejected(self):
        with pytest.raises(GpmError):
            entry_chunks(b"")

    def test_chunks_needed(self):
        assert chunks_needed(1) == 1
        assert chunks_needed(4) == 1
        assert chunks_needed(5) == 2
        assert chunks_needed(24) == 6


class TestLayout:
    def test_geometry_persisted_in_header(self, system):
        log = gpmlog_create_hcl(system, "/pm/l", 1 << 20, 4, 128)
        assert log.blocks == 4
        assert log.threads_per_block == 128
        assert log.chunks_per_thread >= 1
        assert log.data_offset % _STRIPE == 0

    def test_too_small_rejected(self, system):
        with pytest.raises(GpmError):
            gpmlog_create_hcl(system, "/pm/l", 1024, 64, 256)

    def test_bad_geometry_rejected(self, system):
        from repro.core.mapping import gpm_map

        region = gpm_map(system, "/pm/l", 1 << 20, create=True)
        with pytest.raises(GpmError):
            HclLog.format(region, 0, 128)

    def test_chunk_offsets_lane_strided(self, system):
        log = gpmlog_create_hcl(system, "/pm/l", 1 << 20, 2, 64)
        # lanes of one warp are 4 B apart within a 128 B stripe
        assert log.chunk_offset(0, 1, 0) - log.chunk_offset(0, 0, 0) == 4
        # consecutive chunks of one thread are one stripe apart (Fig. 5)
        assert log.chunk_offset(0, 0, 1) - log.chunk_offset(0, 0, 0) == _STRIPE

    def test_warp_areas_disjoint(self, system):
        log = gpmlog_create_hcl(system, "/pm/l", 1 << 20, 2, 64)
        warp_area = log.chunks_per_thread * _STRIPE
        assert log.chunk_offset(1, 0, 0) - log.chunk_offset(0, 0, 0) == warp_area


class TestInsertReadRemove:
    def _log(self, system, blocks=2, tpb=64):
        return gpmlog_create_hcl(system, "/pm/l", 1 << 20, blocks, tpb)

    def test_roundtrip_per_thread(self, system):
        log = self._log(system)

        def k(ctx, log):
            e = np.array([ctx.global_id, ctx.global_id ^ 0xFF], dtype=np.uint32)
            log.insert(ctx, e)
            got = log.read(ctx, 8).view(np.uint32)
            assert list(got) == [ctx.global_id, ctx.global_id ^ 0xFF]

        with persist_window(system):
            system.gpu.launch(k, 2, 64, (log,))
        assert log.host_tail(0) == 2
        assert list(log.host_read_entry(77, 8).view(np.uint32)) == [77, 77 ^ 0xFF]

    def test_multiple_entries_lifo(self, system):
        log = self._log(system)

        def k(ctx, log):
            log.insert(ctx, np.uint32(1))
            log.insert(ctx, np.uint32(2))
            assert int(log.read(ctx, 4).view(np.uint32)[0]) == 2
            log.remove(ctx, 4)
            assert int(log.read(ctx, 4).view(np.uint32)[0]) == 1

        with persist_window(system):
            system.gpu.launch(k, 1, 32, (log,))

    def test_entry_count(self, system):
        log = self._log(system)

        def k(ctx, log):
            for _ in range(3):
                log.insert(ctx, np.zeros(2, dtype=np.uint32))
            assert log.entry_count(ctx, 8) == 3

        with persist_window(system):
            system.gpu.launch(k, 1, 32, (log,))

    def test_log_full(self, system):
        log = gpmlog_create_hcl(system, "/pm/l", 32 * 1024, 1, 32)

        def k(ctx, log):
            with pytest.raises(LogFull):
                for _ in range(10 ** 6):
                    log.insert(ctx, np.uint32(1))

        with persist_window(system):
            system.gpu.launch(k, 1, 1, (log,))

    def test_read_empty_raises(self, system):
        log = self._log(system)

        def k(ctx, log):
            with pytest.raises(LogEmpty):
                log.read(ctx, 4)

        system.gpu.launch(k, 1, 1, (log,))

    def test_geometry_mismatch_rejected(self, system):
        log = gpmlog_create_hcl(system, "/pm/l", 1 << 20, 1, 32)

        def k(ctx, log):
            log.insert(ctx, np.uint32(0))

        with pytest.raises(GpmError):
            system.gpu.launch(k, 2, 32, (log,))

    def test_clear(self, system):
        log = self._log(system)

        def k(ctx, log):
            log.insert(ctx, np.uint32(9))

        with persist_window(system):
            system.gpu.launch(k, 2, 64, (log,))
        log.clear()
        assert log.host_tail(0, persisted=False) == 0
        assert log.host_tail(0, persisted=True) == 0


class TestCoalescing:
    def test_warp_insert_coalesces_stripes(self, system):
        """32 lockstep inserts of a 6-chunk entry = 6 stripe writes + tails."""
        log = gpmlog_create_hcl(system, "/pm/l", 1 << 20, 1, 32)
        system.machine.set_ddio(False)

        def k(ctx, log):
            log.insert(ctx, np.zeros(24, dtype=np.uint8))  # 6 chunks

        res = system.gpu.launch(k, 1, 32, (log,))
        # 6 stripes of 128 B + 1 tail line = 7 transactions for the warp
        assert res.accounting.host_write_tx == 7

    def test_hcl_insert_needs_no_locks(self, system):
        """No serialisation is ever charged by HCL inserts."""
        log = gpmlog_create_hcl(system, "/pm/l", 1 << 20, 4, 128)

        def k(ctx, log):
            log.insert(ctx, np.uint32(1))

        res = system.gpu.launch(k, 4, 128, (log,))
        assert res.accounting.serial_time == 0.0


class TestFailureAtomicity:
    def test_tail_is_the_commit_point(self, system):
        """A crash between entry persist and tail persist hides the entry."""
        log = gpmlog_create_hcl(system, "/pm/l", 1 << 20, 1, 32)
        region = log.gpm.region
        system.machine.set_ddio(False)

        def k(ctx, log):
            log.insert(ctx, np.array([0xAA], dtype=np.uint32))

        with persist_window(system):
            system.gpu.launch(k, 1, 32, (log,))

        # Simulate a torn second insert: entry chunks persisted, tail not.
        lane0 = log.chunk_offset(0, 0, 1)
        region.write_bytes(lane0, np.frombuffer(np.uint32(0xBB).tobytes(), np.uint8))
        region.persist_range(lane0, 4)
        system.crash()
        log2 = HclLog(log.gpm)
        assert log2.host_tail(0) == 1  # second entry invisible
        assert int(log2.host_read_entry(0, 4).view(np.uint32)[0]) == 0xAA

    def test_crash_before_any_persist_loses_entry(self, system):
        log = gpmlog_create_hcl(system, "/pm/l", 1 << 20, 1, 32)

        def k(ctx, log):
            log.insert(ctx, np.uint32(7))

        # DDIO stays ON: inserts reach only the LLC, never the media.
        system.gpu.launch(k, 1, 32, (log,))
        system.crash()
        assert HclLog(log.gpm).host_tail(0) == 0


def _skip_kernel(ctx, log):
    """Scalar reference: no thread of the launch inserts."""


@vectorized_for(_skip_kernel)
def _skip_kernel_warp(wctx, log):
    acct = wctx._engine.acct
    before = (acct.ops, acct.host_read_bytes, acct.fences)
    log.insert_warp(wctx, np.empty((0, 6), dtype=np.uint32),
                    lanes=np.zeros(wctx.n, dtype=bool))
    assert (acct.ops, acct.host_read_bytes, acct.fences) == before
    assert wctx._pending == []


class TestWarpInsertNoLanes:
    def _launch(self, system, log, grid, forced_scalar):
        events = []
        system.events.subscribe(lambda ts, ev: events.append(event_to_record(ts, ev)))
        with persist_window(system):
            if forced_scalar:
                with scalar_lane():
                    result = system.gpu.launch(_skip_kernel, grid, 32, (log,))
            else:
                result = system.gpu.launch(_skip_kernel, grid, 32, (log,))
        return result, events

    @pytest.mark.parametrize("grid", [1, 2], ids=["in-geometry", "past-geometry"])
    def test_no_participating_lanes_is_a_no_op(self, grid):
        """No load, store or fence - and, as no scalar thread inserts, no
        geometry check either (block 1 lies past the one-block log)."""
        from repro import System

        runs = []
        for forced_scalar in (True, False):
            system = System()
            log = gpmlog_create_hcl(system, "/pm/l", 1 << 16, 1, 32)
            result, events = self._launch(system, log, grid, forced_scalar)
            runs.append((result, events, log.gpm.region.visible.copy()))
            assert not log.host_tails(persisted=False).any()
        (rs, ev_s, img_s), (rw, ev_w, img_w) = runs
        assert (rs.lane, rw.lane) == ("scalar", "warp")
        assert rs.accounting == rw.accounting
        assert rw.accounting.fences == 0 and rw.accounting.host_read_bytes == 0
        assert ev_s == ev_w
        assert np.array_equal(img_s, img_w)

    def test_entry_count_must_match_lanes(self, system):
        log = gpmlog_create_hcl(system, "/pm/l", 1 << 16, 1, 32)

        def k(ctx):
            pass

        @vectorized_for(k)
        def k_warp(wctx):
            with pytest.raises(GpmError, match="0 entries for 32"):
                log.insert_warp(wctx, np.empty((0, 6), dtype=np.uint32))

        assert system.gpu.launch(k, 1, 32).lane == "warp"
