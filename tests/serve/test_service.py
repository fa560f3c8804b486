"""The serving layer end to end: store, batcher, determinism, recovery.

The headline acceptance properties live here:

* ``serve --seed S`` is deterministic - two runs of the same config give
  byte-identical summary JSON;
* a mid-traffic :class:`SimulatedCrash` with ``shards >= 2`` is recovered
  shard-by-shard through the existing Fig. 6b kernel with every serve
  invariant passing.
"""

import hashlib

import numpy as np
import pytest

from repro.serve.batcher import Batcher, BatcherConfig
from repro.serve.metrics import summary_json
from repro.serve.service import ServiceConfig, run_service
from repro.serve.store import (
    ShardedKvStore,
    StoreConfig,
    recover_store,
    serve_invariants,
)
from repro.serve.traffic import Request
from repro.sim.crash import CrashInjector, SimulatedCrash
from repro.sim.events import ServiceRequest
from repro.workloads.base import Mode, make_system

SMALL_STORE = dict(n_sets=64, ways=8, n_shards=4, max_batch=64)

#: a small served window: 2 tenants x ~200 requests, a handful of flushes
SMALL_SERVICE = dict(tenants=2, shards=2, rate=400_000.0, duration=5e-4,
                     n_sets=256, seed=42)


def small_store(system=None, **overrides):
    return ShardedKvStore.create(
        Mode.GPM, system, StoreConfig(**{**SMALL_STORE, **overrides}))


# ---------------------------------------------------------------------------
# the sharded store
# ---------------------------------------------------------------------------


class TestShardedKvStore:
    def test_set_get_delete_round_trip_across_shards(self):
        store = small_store()
        keys = np.arange(1, 49, dtype=np.uint64)
        values = keys * np.uint64(1000)
        info = store.set_batch(keys, values)
        # The batch spans several shards and launches warp-sized grids.
        assert info["shards"] > 1
        assert info["threads"] % 32 == 0
        got, _ = store.get_batch(keys)
        assert np.array_equal(got, values)
        dead = keys[::2]
        store.delete_batch(dead)
        got, _ = store.get_batch(keys)
        assert np.all(got[::2] == 0)
        assert np.array_equal(got[1::2], values[1::2])

    def test_shard_grouping_matches_hash_ranges(self):
        store = small_store()
        keys = np.arange(1, 200, dtype=np.uint64)
        shards = store.shard_of_keys(keys)
        assert set(np.unique(shards)) <= set(range(SMALL_STORE["n_shards"]))
        # Every shard id must agree with the manifest-driven set mapping.
        from repro.workloads.kvs import hash64
        for key, shard in zip(keys.tolist(), shards.tolist()):
            set_idx = hash64(int(key)) % store.config.n_sets
            assert store.shards.shard_of_set(np.array([set_idx]))[0] == shard

    def test_flags_idle_and_logs_clear_after_commit(self):
        store = small_store()
        keys = np.arange(1, 33, dtype=np.uint64)
        store.set_batch(keys, keys)
        assert store.shards.active_shards() == []
        for name, _desc, check in serve_invariants(store.system):
            ok, detail = check()
            assert ok, (name, detail)

    def test_oversized_batch_rejected(self):
        store = small_store()
        keys = np.arange(1, 100, dtype=np.uint64)
        with pytest.raises(ValueError, match="log geometry"):
            store.set_batch(keys, keys)

    def test_crash_mid_set_batch_recovers_to_prior_state(self):
        system = make_system(Mode.GPM)
        store = small_store(system)
        committed = np.arange(1, 33, dtype=np.uint64)
        store.set_batch(committed, committed * np.uint64(7))
        before = (store.keys.np_persisted.copy(),
                  store.values.np_persisted.copy())
        injector = CrashInjector(system.machine)
        injector.arm(10)
        with pytest.raises(SimulatedCrash):
            store.set_batch(np.arange(100, 132, dtype=np.uint64),
                            np.arange(100, 132, dtype=np.uint64),
                            crash_injector=injector)
        injector.disarm()
        system.machine.crash()
        report = recover_store(system, Mode.GPM)
        assert report["recovered"], "the armed crash left no shard to undo"
        for name, _desc, check in serve_invariants(system):
            ok, detail = check()
            assert ok, (name, detail)
        # The interrupted batch is fully undone: the durable table is
        # exactly the committed prefix again.
        from repro.core.mapping import gpm_map
        table = gpm_map(system, "/pm/serve/table")
        n_pairs = store.config.n_pairs
        keys = table.region.persisted_view(np.uint64, 0, n_pairs)
        values = table.region.persisted_view(np.uint64, n_pairs * 8, n_pairs)
        assert np.array_equal(keys, before[0])
        assert np.array_equal(values, before[1])


# ---------------------------------------------------------------------------
# the batcher
# ---------------------------------------------------------------------------


def _req(key, op="set", tenant="t", arrival=0.0, value=1):
    return Request(tenant=tenant, op=op, key=key, value=value, arrival=arrival)


class TestBatcher:
    def _batcher(self, **cfg):
        store = small_store()
        from repro.serve.admission import AdmissionController
        admission = AdmissionController()
        cfg.setdefault("target_batch", 32)  # within the small store's logs
        batcher = Batcher(store, admission, BatcherConfig(**cfg))
        return batcher, admission

    def test_compaction_is_last_write_wins(self):
        batcher, _ = self._batcher()
        reqs = [_req(1, value=10), _req(2, value=20), _req(1, op="delete"),
                _req(3, op="get"), _req(2, value=21)]
        sets, deletes, gets, superseded = batcher._compact(reqs)
        assert [(r.key, r.value) for r in sets] == [(2, 21)]
        assert [r.key for r in deletes] == [1]
        assert [r.key for r in gets] == [3]
        assert {(r.key, r.op) for r in superseded} == {(1, "set"), (2, "set")}

    def test_size_trigger_and_linger_deadline(self):
        batcher, _ = self._batcher(target_batch=4, linger=20e-6)
        assert not batcher.should_flush(0.0)
        batcher.submit(_req(1, arrival=5e-6))
        assert batcher.next_deadline() == 5e-6 + 20e-6
        # The sum form: exactly at the deadline the flush fires.
        assert not batcher.should_flush(5e-6 + 19.9e-6)
        assert batcher.should_flush(batcher.next_deadline())
        for k in range(2, 5):
            batcher.submit(_req(k))
        assert batcher.should_flush(5e-6)  # size trigger, ignores linger

    def test_flush_chunks_backlog_to_target(self):
        batcher, admission = self._batcher(target_batch=8)
        admission.queue_depth = 20
        for k in range(1, 21):
            batcher.submit(_req(k))
        assert batcher.flush() == 8
        assert len(batcher.pending) == 12
        assert admission.queue_depth == 12

    def test_flush_completes_every_request_in_window(self):
        from repro.sim.events import ServiceComplete

        batcher, admission = self._batcher()
        seen = []
        bus = batcher.store.system.events
        bus.subscribe(lambda ts, e: seen.append(e)
                      if isinstance(e, ServiceComplete) else None)
        admission.queue_depth = 3
        batcher.submit(_req(1, value=5))
        batcher.submit(_req(1, value=6))   # supersedes the first SET
        batcher.submit(_req(1, op="get"))
        assert batcher.flush() == 3
        assert len(seen) == 3
        assert sum(e.coalesced for e in seen) == 1
        got, _ = batcher.store.get_batch(np.array([1], dtype=np.uint64))
        assert got[0] == 6  # the GET observed its window's last write


# ---------------------------------------------------------------------------
# the full service
# ---------------------------------------------------------------------------


class TestRunService:
    def test_config_accepts_fractions_that_sum_to_one(self):
        # 1 - 0.9 rounds below 0.1; the bound is on the sum, as traffic's.
        ServiceConfig(read_fraction=0.9, delete_fraction=0.1)

    def test_summary_is_byte_identical_per_seed(self):
        a = run_service(ServiceConfig(**SMALL_SERVICE))
        b = run_service(ServiceConfig(**SMALL_SERVICE))
        assert summary_json(a["summary"]) == summary_json(b["summary"])
        c = run_service(ServiceConfig(**{**SMALL_SERVICE, "seed": 7}))
        assert summary_json(a["summary"]) != summary_json(c["summary"])

    @pytest.mark.parametrize("overrides, digest", [
        (dict(seed=42, duration=5e-4),
         "2ba80ccb191c0790223b2cdb58aa7b06f6c4127a5f4235049f9a0c3f9b048098"),
        (dict(seed=7, duration=5e-4),
         "62a473c1298ae76a73666e099b6c08cfd63b6dcdbcd3014733f282c92885a965"),
        # 479 queue-full sheds
        (dict(seed=3, duration=1e-3, rate=1e6, max_queue_depth=256),
         "c2497c93805a987439851f1b19b47f587b5e5534f7ea25ed0f687483ab6d156b"),
        # 1,229 tenant-rate sheds
        (dict(seed=5, duration=1e-3, tenant_rate=2e5, tenant_burst=16),
         "f100fa17eb0c97f20fae781b67a46a279f033b5b65c730bd9764d932fad24865"),
    ], ids=["seed42", "seed7", "queue-full", "tenant-rate"])
    def test_summary_is_pinned(self, overrides, digest):
        summary = run_service(ServiceConfig(**overrides))["summary"]
        assert hashlib.sha256(summary_json(summary).encode()).hexdigest() == digest

    def test_tenant_step_exception_propagates(self):
        system = make_system(Mode.GPM)
        offered = []

        def fail_on_tenth(ts, event):
            if type(event) is ServiceRequest:
                offered.append(event)
                if len(offered) == 10:
                    raise RuntimeError("tenth request")

        system.events.subscribe(fail_on_tenth)
        with pytest.raises(RuntimeError, match="tenth request"):
            run_service(ServiceConfig(duration=1e-4), system=system)

    def test_summary_reports_the_service_story(self):
        summary = run_service(ServiceConfig(**SMALL_SERVICE))["summary"]
        assert summary["offered"] > 100
        assert 0 < summary["completed"] <= summary["admitted"] <= summary["offered"]
        assert summary["throughput_ops_per_s"] > 0
        assert summary["batches"] > 1
        assert 0 < summary["batch_occupancy"] <= 1
        assert summary["latency"]["p50"] <= summary["latency"]["p95"] \
            <= summary["latency"]["p99"]
        assert len(summary["tenants"]) == SMALL_SERVICE["tenants"]
        for t in summary["tenants"].values():
            assert t["offered"] > 0
            for q in ("p50", "p95", "p99"):
                assert t["latency"][q] is not None

    def test_overload_sheds_instead_of_queueing_unboundedly(self):
        overload = {**SMALL_SERVICE, "rate": 3_000_000.0,
                    "tenant_rate": 500_000.0}
        summary = run_service(ServiceConfig(**overload))["summary"]
        assert summary["shed"] > 0
        assert 0 < summary["shed_rate"] < 1
        reasons = set()
        for t in summary["tenants"].values():
            reasons |= set(t["shed"])
        assert "tenant-rate" in reasons

    def test_mid_traffic_crash_recovers_every_shard(self):
        system = make_system(Mode.GPM)
        injector = CrashInjector(system.machine)
        injector.arm(600)
        config = ServiceConfig(**{**SMALL_SERVICE, "shards": 3})
        with pytest.raises(SimulatedCrash):
            run_service(config, system=system, crash_injector=injector)
        injector.disarm()
        system.machine.crash()
        report = recover_store(system, Mode.GPM)
        assert report["shards"] == 3
        assert report["recovered"], "the mid-flush crash left no active shard"
        assert report["elapsed"] > 0
        for name, _desc, check in serve_invariants(system):
            ok, detail = check()
            assert ok, (name, detail)
