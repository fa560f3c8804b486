"""Self-tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import suite  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_follow_the_grammar():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert all(NAME.fullmatch(n) for n in names), [
        n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    assert spec["per_layer"] == tracer.metrics()
    assert len(spec["per_layer"]) <= 128


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)
    leaf = t.wrap("leaf", lambda: clock.advance(2.0))

    def outer_body():
        clock.advance(1.0)
        leaf()
        clock.advance(3.0)

    outer = t.wrap("outer", outer_body)
    with t.span("item", "cell"):
        clock.advance(0.5)
        outer()
        leaf()

    assert t.acc[("outer", "cell")] == [1, 4.0]
    assert t.acc[("leaf", "outer")] == [1, 2.0]
    assert t.acc[("leaf", "cell")] == [1, 2.0]
    assert t.totals()["leaf"] == [2, 4.0]
    (span,) = t.spans
    assert span["end"] - span["start"] == 8.5
    assert span["self_s"] == 0.5
    metrics = t.layer_metrics(passes=1, host_s=8.5)
    assert metrics["trace.unattributed_pct"] == pytest.approx(100 * 0.5 / 8.5)


def test_max_rate_takes_the_highest_point_within_the_limit():
    points = [
        {"offered_ops_s": 1_000_000, "p999_us": 60.0, "shed": 0},
        {"offered_ops_s": 2_000_000, "p999_us": 150.0, "shed": 0},
        {"offered_ops_s": 3_000_000, "p999_us": 199.0, "shed": 0},
        {"offered_ops_s": 4_000_000, "p999_us": 120.0, "shed": 7},
        {"offered_ops_s": 6_000_000, "p999_us": 650.0, "shed": 0},
    ]
    assert suite.max_rate(points, limit_us=200.0) == 3_000_000
    assert suite.max_rate(points, limit_us=100.0) == 1_000_000
    assert suite.max_rate(points, limit_us=10.0) is None


def test_compare_rule():
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    # every candidate run faster than every reference run
    assert compare.verdict(base, [9.0, 9.1, 8.9], "lower", 0.05) == "won"
    assert compare.verdict(base, [11.0, 11.1, 10.9], "higher", 0.05) == "won"
    # a clear slowdown beyond the bound
    assert compare.verdict(base, [11.5, 11.6, 11.4], "lower", 0.05) == "lost"
    # within the bound
    assert compare.verdict(base, [10.2, 10.0, 10.1], "lower", 0.05) == "same"
    # noise wider than the bound, runs interleaved
    noisy = [8.0, 12.0, 10.0, 9.0, 11.0]
    assert compare.verdict(base, noisy, "lower", 0.05) == "unresolved"
    # wide spread, but every candidate run is worse: decided anyway
    assert compare.verdict(base, [13.0, 16.0, 14.0], "lower", 0.05) == "lost"


def test_golden_round_trip_on_one_cheap_cell():
    workload = suite.paper_direct(seed=0)
    workload.before_pass()
    label = "gpDB (I)/gpm"
    pinned, problems = workload.check(label, workload.items[label]())
    assert problems == []
    assert pinned == {f"paper/{label}": suite.load_golden()[f"paper/{label}"]}


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-direct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
