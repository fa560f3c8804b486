"""The persistency-litmus fuzzer: generator, oracle, matrix, sentinels.

Small bounded campaigns here (2-3 tests, the full 18-point matrix); the CI
workflow runs the real ``--litmus 25 --seed 7`` acceptance sweep.
"""

import pytest

from repro.check.litmus import (
    DEFAULT_LITMUS_FRONTIERS,
    REGION_BYTES,
    SLOT_STRIDE,
    ConfigPoint,
    LitmusExplorer,
    LitmusTest,
    build_model,
    config_matrix,
    execute_point,
    generate_test,
    generate_tests,
    interpret,
    parse_config_point,
    select_frontiers,
)
from repro.check.frontier import Frontier
from repro.check.report import litmus_reproducer_command, provenance_reproducer
from repro.sim.persistency import MODEL_REGISTRY, SENTINEL_MUTANTS


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------


class TestGenerator:
    def test_deterministic_in_seed_and_index(self):
        assert generate_test(7, 3) == generate_test(7, 3)
        assert generate_test(7, 3) != generate_test(7, 4)
        assert generate_test(7, 3) != generate_test(8, 3)

    def test_grammar_bounds(self):
        for test in generate_tests(0, 30):
            assert 2 <= test.n_regions <= 4
            assert test.n_threads in (4, 6, 8)
            assert 1 <= len(test.phases) <= 3
            for phase in test.phases:
                assert phase, "empty phases would make barriers unobservable"
                for step in phase:
                    assert step[0] in ("write", "fence")

    def test_forced_prefix_guarantees_two_fenced_rounds(self):
        # Every test's first phase opens with write/fence/write/fence so the
        # fence-order sentinel always has two ordered rounds in one flush.
        for test in generate_tests(11, 20):
            kinds = [step[0] for step in test.phases[0][:4]]
            assert kinds == ["write", "fence", "write", "fence"]

    def test_slots_never_collide(self):
        for test in generate_tests(3, 20):
            seen = set()
            for phase in test.phases:
                for step in phase:
                    if step[0] != "write":
                        continue
                    _, region, base, _ = step
                    for t in range(test.n_threads):
                        slot = (region, base + t)
                        assert slot not in seen
                        seen.add(slot)
                        assert (base + t + 1) * SLOT_STRIDE <= REGION_BYTES

    def test_values_unique_and_nonzero(self):
        for test in generate_tests(5, 10):
            values = set()
            for phase in test.phases:
                for step in phase:
                    if step[0] != "write":
                        continue
                    for t in range(test.n_threads):
                        value = step[3] + t + 1
                        assert value != 0
                        assert value not in values
                        values.add(value)

    def test_payload_round_trip(self):
        test = generate_test(9, 2)
        assert LitmusTest.from_payload(test.payload()) == test
        import json

        assert LitmusTest.from_payload(
            json.loads(json.dumps(test.payload()))) == test

    def test_bulk_copy_production(self):
        # The grammar emits the bulk-copy production often enough to
        # exercise the transfer descriptor, sourcing only written regions.
        tests = generate_tests(0, 40)
        with_bulk = [t for t in tests if t.bulk is not None]
        assert with_bulk, "bulk-copy production never fired in 40 tests"
        assert len(with_bulk) < len(tests), "plain tests must survive too"
        for test in with_bulk:
            src, n_slots = test.bulk
            assert 0 <= src < test.n_regions
            assert n_slots > 0
            assert f"bulk-copy r{src}x{n_slots}" in test.describe()

    def test_bulk_payload_round_trip_and_pre_bulk_compat(self):
        test = next(t for t in generate_tests(0, 40) if t.bulk is not None)
        assert LitmusTest.from_payload(test.payload()) == test
        # Cached payloads from before the bulk production lack the key.
        legacy = generate_test(9, 2).payload()
        assert "bulk" not in legacy
        assert LitmusTest.from_payload(legacy).bulk is None

    def test_bulk_copy_passes_a_config_point(self):
        test = next(t for t in generate_tests(0, 40) if t.bulk is not None)
        point = config_matrix()[0]
        verdict = execute_point(test.payload(), point.spec())
        assert verdict["ok"], verdict["violations"][:2]


# ---------------------------------------------------------------------------
# the config matrix
# ---------------------------------------------------------------------------


class TestConfigMatrix:
    def test_covers_every_model_window_and_eadr_axis(self):
        points = config_matrix()
        assert {p.model for p in points} == set(MODEL_REGISTRY)
        assert {p.window for p in points} == {True, False}
        assert {p.eadr for p in points} == {True, False}
        # eADR-native models are not doubled onto the eADR axis.
        for p in points:
            if MODEL_REGISTRY[p.model].eadr:
                assert not p.eadr
        assert len(points) == len(set(points))

    def test_spec_round_trip(self):
        for p in config_matrix():
            assert parse_config_point(p.spec()) == p

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="nowindow"):
            parse_config_point("strict:sometimes:adr")
        with pytest.raises(ValueError, match="unknown model"):
            parse_config_point("bogus:window:adr")

    def test_eadr_axis_lifts_model_instance(self):
        model = build_model(ConfigPoint("strict", True, True))
        assert model.eadr and not model.toggles_ddio
        # The class is untouched: only the instance is lifted.
        assert not MODEL_REGISTRY["strict"].eadr
        plain = build_model(ConfigPoint("strict", True, False))
        assert not plain.eadr and plain.toggles_ddio


# ---------------------------------------------------------------------------
# the outcome oracle (abstract interpretation)
# ---------------------------------------------------------------------------


class TestInterpreter:
    def test_relaxed_defers_everything_to_retirement(self):
        test = generate_test(7, 0)
        plan, drains, bounds = interpret(test, "relaxed")
        assert bounds == 0
        assert all(w.key[1] > 0 for w in plan)
        # One implicit round per touched region per final flush.
        rounds = {w.key[1] for w in plan}
        assert rounds == {1 << 30}

    def test_strict_orders_rounds_per_thread(self):
        test = generate_test(7, 0)
        plan, drains, bounds = interpret(test, "strict")
        assert bounds == 0
        per_thread = {}
        for w in plan:
            per_thread.setdefault(w.thread, []).append(w.key)
        for keys in per_thread.values():
            assert keys == sorted(keys)

    def test_epoch_counts_boundaries(self):
        test = generate_test(7, 0)  # single phase with fences
        _, _, bounds = interpret(test, "epoch")
        assert bounds == 1
        multi = next(t for t in generate_tests(0, 40) if len(t.phases) == 3)
        _, _, multi_bounds = interpret(multi, "epoch")
        assert multi_bounds >= 1

    def test_census_matches_engine(self):
        # The predicted drain/boundary counts must equal what the reference
        # run announces - execute_point fails its census check otherwise,
        # so a passing matrix IS the cross-validation; spot-check here.
        test = generate_test(7, 1)
        for spec in ("strict:window:adr", "epoch:window:adr",
                     "relaxed:window:adr"):
            result = execute_point(test.payload(), spec)
            census = result["census"]
            assert census["warp-drain"] == census["expect-warp-drain"]
            assert census["epoch-boundary"] == census["expect-epoch-boundary"]


class TestSelectFrontiers:
    def test_keeps_every_ordering_frontier(self):
        frontiers = [Frontier("event", i, "warp-drain") for i in range(10)]
        frontiers += [Frontier("threads", i, "unfenced-window")
                      for i in range(20)]
        chosen = select_frontiers(frontiers, 4)
        assert [f for f in chosen if f.kind == "warp-drain"] == frontiers[:10]
        assert sum(f.kind == "unfenced-window" for f in chosen) <= 4

    def test_preserves_recording_order(self):
        frontiers = [Frontier("event", 0, "fence"),
                     Frontier("event", 1, "warp-drain"),
                     Frontier("threads", 5, "unfenced-window")]
        assert select_frontiers(frontiers, 10) == frontiers


# ---------------------------------------------------------------------------
# executing matrix points
# ---------------------------------------------------------------------------


class TestExecutePoint:
    def test_clean_configs_pass_everywhere(self):
        test = generate_test(7, 0)
        for point in config_matrix():
            result = execute_point(test.payload(), point.spec())
            assert result["ok"], (point.spec(), result["violations"][:2])
            assert result["config"] == point.spec()
            assert result["frontiers_explored"] >= 1

    def test_deterministic_verdicts(self):
        test = generate_test(3, 1)
        spec = "epoch:window:adr"
        assert (execute_point(test.payload(), spec)
                == execute_point(test.payload(), spec))

    def test_payload_is_json_serializable(self):
        import json

        result = execute_point(generate_test(1, 0).payload(),
                               "strict:window:adr")
        assert json.loads(json.dumps(result)) == result

    def test_frontier_spec_replays_single_state(self):
        test = generate_test(7, 0)
        result = execute_point(test.payload(), "strict:window:adr",
                               frontier_spec="event:1")
        assert result["frontiers_explored"] == 1
        assert result["ok"]


class TestSentinelMutants:
    def test_fence_order_mutant_caught(self):
        test = generate_test(7, 0)
        hits = [p.spec() for p in config_matrix()
                if not execute_point(test.payload(), p.spec(),
                                     mutant="fence-order")["ok"]]
        assert hits, "the fence-order sentinel escaped the whole matrix"
        # It must be caught under the strict-ordering durable configs at
        # least (those observe drain delivery order directly).
        assert "strict:window:adr" in hits
        assert "eadr:window:adr" in hits

    def test_epoch_boundary_mutant_caught(self):
        test = generate_test(7, 0)
        hits = {}
        for p in config_matrix():
            result = execute_point(test.payload(), p.spec(),
                                   mutant="epoch-boundary")
            if not result["ok"]:
                hits[p.spec()] = result["violations"][0]["name"]
        # Only epoch-policy models announce boundaries; the census notices
        # their absence.
        assert any(spec.startswith("epoch:") for spec in hits)
        assert "litmus-census-epoch-boundary" in hits.values()

    def test_mutants_do_not_leak_across_calls(self):
        from repro.sim.persistency import active_mutant

        test = generate_test(7, 0)
        execute_point(test.payload(), "strict:window:adr",
                      mutant="fence-order")
        assert active_mutant() is None
        assert execute_point(test.payload(), "strict:window:adr")["ok"]


# ---------------------------------------------------------------------------
# the explorer campaign
# ---------------------------------------------------------------------------


class TestLitmusExplorer:
    def test_campaign_passes_and_catches_both_sentinels(self):
        report = LitmusExplorer(count=2, seed=7, mutant_tests=1,
                                corpus=False).run()
        assert report.ok
        assert len(report.matrix) == 2 * len(config_matrix())
        assert set(report.sentinels) == set(SENTINEL_MUTANTS)
        for info in report.sentinels.values():
            assert info["caught"]
            assert info["detections"]
        text = report.describe()
        assert "PASS" in text and "caught" in text

    def test_campaign_is_deterministic(self):
        # The second campaign fans out, so this also pins width-2 parity.
        a = LitmusExplorer(count=2, seed=5, mutant_tests=1, corpus=False).run()
        b = LitmusExplorer(count=2, seed=5, jobs=2, mutant_tests=1,
                           corpus=False).run()
        assert a.matrix == b.matrix
        assert a.sentinels == b.sentinels

    def test_disk_cache_serves_repeated_points(self, tmp_path):
        from repro.experiments.diskcache import ResultCache
        from repro.experiments.runner import set_disk_cache

        cache = ResultCache(str(tmp_path))
        set_disk_cache(cache)
        try:
            first = LitmusExplorer(count=1, seed=2, mutant_tests=1,
                                   corpus=False).run()
            entries = list(tmp_path.glob("litmus-*.json"))
            assert len(entries) == len(first.matrix) + sum(
                s["points"] for s in first.sentinels.values())
            # Second campaign: all points served from disk, same verdicts.
            import time

            start = time.perf_counter()
            second = LitmusExplorer(count=1, seed=2, mutant_tests=1,
                                    corpus=False).run()
            warm = time.perf_counter() - start
            assert second.matrix == first.matrix
            assert warm < 5.0
            assert list(tmp_path.glob("litmus-*.json")) == entries
        finally:
            set_disk_cache(None)

    def test_rejects_empty_campaign(self):
        with pytest.raises(ValueError):
            LitmusExplorer(count=0, seed=1)


# ---------------------------------------------------------------------------
# reproducers and provenance
# ---------------------------------------------------------------------------


class TestReproducers:
    def test_litmus_reproducer_command_shapes(self):
        cmd = litmus_reproducer_command(7, 3, "epoch:window:adr",
                                        "event:9", "fence-order")
        assert "--litmus-replay 7:3" in cmd
        assert "--litmus-config epoch:window:adr" in cmd
        assert "--frontier event:9" in cmd
        assert "--mutant fence-order" in cmd
        bare = litmus_reproducer_command(7, 3, "strict:window:adr",
                                         "reference")
        assert "--frontier" not in bare

    def test_provenance_reproducer_from_stored_coordinates(self):
        assert provenance_reproducer({}) is None
        cmd = provenance_reproducer({"seed": 7, "index": 2,
                                     "config": "relaxed:nowindow:adr"})
        assert cmd == litmus_reproducer_command(7, 2, "relaxed:nowindow:adr")
        assert provenance_reproducer({"run": "nightly"}) == "run=nightly"

    def test_explorer_provenance_flows_to_results_and_recovery(self):
        from repro.check import CrashExplorer
        from repro.workloads import Mode

        prov = {"seed": 7, "index": 0, "config": "strict:window:adr"}
        report = CrashExplorer("ring", Mode.GPM, max_frontiers=2,
                               provenance=prov).explore()
        assert report.provenance == prov
        for result in report.results:
            assert result.provenance == prov

    def test_recovery_report_surfaces_provenance_paths(self):
        from repro.check import make_oracle
        from repro.workloads import Mode

        oracle = make_oracle("ring")
        system = oracle.build_system(Mode.GPM)
        oracle.execute(system, Mode.GPM, None)
        system.machine.crash()
        report = oracle.recover(system, Mode.GPM,
                                provenance={"seed": 7, "config": "x"})
        assert report.provenance == {"seed": 7, "config": "x"}
        assert set(report.paths("provenance")) == {"seed=7", "config=x"}
