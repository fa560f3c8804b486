"""The post-crash inspector and the gpm_memset/gpm_memcpy utilities."""

import numpy as np
import pytest

from repro.core import (
    GpmError,
    TransactionFlag,
    classify_file,
    format_survey,
    gpm_map,
    gpm_memcpy,
    gpm_memset,
    gpmcp_create,
    gpmlog_create_conv,
    gpmlog_create_hcl,
    gpmlog_insert,
    pending_recovery,
    persist_window,
    survey,
)


class TestInspector:
    def test_classifies_hcl_log(self, system):
        log = gpmlog_create_hcl(system, "/pm/l", 1 << 20, 2, 64)

        def k(ctx, log):
            if ctx.global_id < 10:
                gpmlog_insert(ctx, log, np.uint32(1))

        with persist_window(system):
            system.gpu.launch(k, 2, 64, (log,))
        report = classify_file(system, system.fs.open("/pm/l"))
        assert report.kind == "hcl-log"
        assert report.detail["threads_with_entries"] == 10
        assert report.detail["geometry"] == "2x64"
        # One chunk per entry; counted from one view, reported as Python ints.
        assert report.detail["total_chunks"] == 10
        assert type(report.detail["threads_with_entries"]) is int
        assert type(report.detail["total_chunks"]) is int

    def test_classifies_conv_log(self, system):
        gpmlog_create_conv(system, "/pm/c", 1 << 20, 8)
        report = classify_file(system, system.fs.open("/pm/c"))
        assert report.kind == "conv-log"
        assert report.detail["partitions"] == 8

    def test_classifies_checkpoint(self, system):
        gpmcp_create(system, "/pm/cp", 4096, 2, 3)
        report = classify_file(system, system.fs.open("/pm/cp"))
        assert report.kind == "checkpoint"
        assert report.detail["groups"] == 3

    def test_classifies_tx_flag_and_pending_recovery(self, system):
        flag = TransactionFlag.create(system, "/pm/flag")
        assert pending_recovery(system) == []
        flag.begin()
        system.crash()
        assert pending_recovery(system) == ["/pm/flag"]
        report = classify_file(system, system.fs.open("/pm/flag"))
        assert report.kind == "tx-flag"
        assert report.detail["transaction_active"] is True

    def test_classifies_pstruct_types(self, system):
        from repro.core.persist import persist_window
        from repro.pstruct import PersistentHashMap, PersistentRing

        pmap = PersistentHashMap.create(system, "/pm/map", capacity=1024)
        pmap.insert_batch([1, 2], [10, 20])
        ring = PersistentRing.create(system, "/pm/ring", capacity=64)

        def k(ctx, ring):
            if ctx.global_id < 5:
                ring.append(ctx, ctx.global_id)

        with persist_window(system):
            system.gpu.launch(k, 1, 32, (ring,))
        m_report = classify_file(system, system.fs.open("/pm/map"))
        assert m_report.kind == "hashmap"
        assert m_report.detail["occupied"] == 2
        r_report = classify_file(system, system.fs.open("/pm/ring"))
        assert r_report.kind == "ring"
        assert r_report.detail["committed"] == 5

    def test_raw_fallback(self, system):
        system.fs.create("/pm/blob", 4096)
        report = classify_file(system, system.fs.open("/pm/blob"))
        assert report.kind == "raw"

    def test_survey_and_format(self, system):
        gpmlog_create_hcl(system, "/pm/l", 1 << 20, 1, 32)
        TransactionFlag.create(system, "/pm/flag").begin()
        reports = survey(system)
        assert {r.kind for r in reports} == {"hcl-log", "tx-flag"}
        text = format_survey(system)
        assert "RECOVERY NEEDED" in text
        assert "/pm/l" in text

    def test_inspector_reads_only_durable_state(self, system):
        """Unflushed (volatile) log inserts must be invisible to it."""
        log = gpmlog_create_hcl(system, "/pm/l", 1 << 20, 1, 32)

        def k(ctx, log):
            gpmlog_insert(ctx, log, np.uint32(1))

        system.gpu.launch(k, 1, 32, (log,))  # no persist window: LLC only
        report = classify_file(system, system.fs.open("/pm/l"))
        assert report.detail["threads_with_entries"] == 0


class TestMemUtilities:
    def test_memset_durable(self, system):
        region = gpm_map(system, "/pm/a", 4096, create=True)
        t = gpm_memset(system, region, 64, 1024, value=7)
        assert t > 0
        assert (region.persisted_view(np.uint8, 64, 1024) == 7).all()
        assert not region.persisted_view(np.uint8, 0, 64).any()

    def test_memset_validations(self, system):
        region = gpm_map(system, "/pm/a", 4096, create=True)
        with pytest.raises(GpmError):
            gpm_memset(system, region, 0, 64, value=300)
        hbm = system.machine.alloc_hbm("h", 64)
        with pytest.raises(GpmError):
            gpm_memset(system, hbm, 0, 64)

    def test_memcpy_hbm_to_pm_durable(self, system):
        src = system.machine.alloc_hbm("src", 4096)
        src.view(np.uint8)[:] = 9
        dst = gpm_map(system, "/pm/b", 4096, create=True)
        gpm_memcpy(system, dst, 0, src, 0, 4096)
        system.crash()
        assert (dst.view(np.uint8) == 9).all()

    def test_memcpy_pm_to_pm(self, system):
        a = gpm_map(system, "/pm/a", 1024, create=True)
        b = gpm_map(system, "/pm/b", 1024, create=True)
        a.view(np.uint8)[:] = 4
        gpm_memcpy(system, b, 0, a, 0, 1024)
        assert (b.persisted_view(np.uint8) == 4).all()

    def test_memcpy_dst_must_be_pm(self, system):
        hbm = system.machine.alloc_hbm("h", 64)
        a = gpm_map(system, "/pm/a", 64, create=True)
        with pytest.raises(GpmError):
            gpm_memcpy(system, hbm, 0, a, 0, 64)

    def test_memset_on_eadr_platform(self, eadr_system):
        region = gpm_map(eadr_system, "/pm/a", 1024, create=True)
        gpm_memset(eadr_system, region, 0, 1024, value=3)
        eadr_system.crash()
        assert (region.view(np.uint8) == 3).all()
