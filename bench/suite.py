"""The four benchmark workloads: what one pass runs and how its outputs are checked.

A workload is a fixed list of *items* (a paper cell, a serve ladder point, a
crash target's sweep, the litmus campaign).  One pass runs every item once;
the worker times each item and checks its output outside the timed region.
Every checked output is either pinned in ``golden.json`` (recorded at the
parent commit by ``golden.py``) or judged by the program's own checks.

Item order and inputs are pure functions of the workload seed:

* ``paper-direct`` / ``paper-llc`` run fixed inputs in a fixed order; the
  seed is unused.
* ``serve-ladder`` runs serve trace ``seed % SERVE_TRACES``; every trace is
  pinned, so a changed service summary fails at any seed.
* ``crash-sweep`` crashes each target at every ``CRASH_STRIDE``-th frontier,
  starting at ``seed % CRASH_STRIDE``, so ``CRASH_STRIDE`` consecutive seeds
  together cover the exhaustive frontier set at a near-constant cost per pass.
  The litmus campaign runs at a fixed seed: its cost varies about 2x across
  generator seeds, which would swamp the timing.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.check import explorer
from repro.check.explorer import CrashExplorer
from repro.check.litmus import run_campaign
from repro.experiments import runner
from repro.experiments.diskcache import result_to_record
from repro.experiments.runner import clear_cache, register_workload
from repro.serve import ServiceConfig, run_service
from repro.serve.metrics import summary_json
from repro.serve.store import serve_invariants
from repro.sim.events import ServiceComplete
from repro.workloads import (
    BfsConfig,
    BlackScholes,
    DnnTraining,
    GraphBfs,
    Mode,
    gpmbench_suite,
    make_system,
)

GOLDEN_PATH = Path(__file__).with_name("golden.json")

PAPER_LINEUP = tuple(w.name for w in gpmbench_suite())
DIRECT_MODES = ("gpm", "cap-mm", "gpm-epoch", "gpm-relaxed", "gpm-adaptive")
LLC_MODES = ("gpm-eadr", "cap-fs")


def _shortened(workload, iterations: int):
    workload.iterations = iterations
    return workload


#: paper-llc's stand-ins for the three lineup workloads whose eADR or CAP-fs
#: cells take 5-10 s each.  Each keeps its per-checkpoint (or per-level)
#: footprint and runs fewer checkpoints (levels): DNN's 3.2 MB weights still
#: overflow the 2 MB DDIO LLC, BLK's second checkpoint still evicts every
#: line of the first, and BFS still runs hundreds of CAP-fs levels.
SHORT_WORKLOADS = {
    "DNN": ("DNN-2it", lambda: _shortened(DnnTraining(), 2)),
    "BLK": ("BLK-4it", lambda: _shortened(BlackScholes(), 4)),
    "BFS": ("BFS-160col", lambda: GraphBfs(BfsConfig(cols=160))),
}

#: per-tenant offered rates, ops per simulated second
SERVE_LADDER = (250_000, 500_000, 750_000, 1_000_000, 1_500_000)
SERVE_TENANTS = 4
#: simulated seconds per ladder point: ~10k completions at 500k/tenant,
#: so p99.9 has ten samples beyond it
SERVE_WINDOW_S = 5e-3
SERVE_TRACES = 16
#: the latency limit behind ``max_rate_ops_s``
SERVE_P999_LIMIT_US = 200.0

CRASH_TARGETS = ("prefix_sum", "kvs", "kvs-delete", "db-update",
                 "checkpointed-dnn", "hashmap", "ring")
CRASH_STRIDE = 12
LITMUS_TESTS = 2
LITMUS_SEED = 42


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cell_digest(result) -> str:
    return digest(json.dumps(result_to_record(result), sort_keys=True))


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def max_rate(points: list[dict], limit_us: float = SERVE_P999_LIMIT_US):
    """Highest offered rate whose p99.9 meets ``limit_us`` with nothing shed.

    ``points`` carry ``offered_ops_s``, ``p999_us`` and ``shed``; a shed
    request counts as missing the limit.  ``None`` when no point qualifies.
    """
    ok = [p["offered_ops_s"] for p in points
          if p["shed"] == 0 and p["p999_us"] is not None
          and p["p999_us"] <= limit_us]
    return max(ok, default=None)


class Workload:
    """Base: ``items`` maps a label to a callable; ``check`` judges its output.

    ``check`` returns ``(pinned, problems)``: ``pinned`` maps golden keys to
    the values this output produced, ``problems`` lists failed built-in
    checks.  ``diagnostics`` summarises the first pass's outputs.
    """

    def before_pass(self) -> None:
        pass

    def check(self, label: str, output) -> tuple[dict, list[str]]:
        raise NotImplementedError

    def diagnostics(self) -> dict:
        return {}


class PaperCells(Workload):
    """Lineup x modes through the experiment engine, cold every pass."""

    def __init__(self, cells: list[tuple[str, str]]) -> None:
        self.items = {f"{w}/{m}": (lambda w=w, m=m: runner.run_workload(w, Mode(m)))
                      for w, m in cells}
        self._sim_s: dict[str, float] = {}

    def before_pass(self) -> None:
        clear_cache()

    def check(self, label, result):
        self._sim_s.setdefault(label, result.elapsed)
        return {f"paper/{label}": cell_digest(result)}, []

    def diagnostics(self) -> dict:
        return {"cells": len(self.items),
                "sim_s_per_pass": sum(self._sim_s.values())}


def paper_direct(seed: int) -> PaperCells:
    return PaperCells([(w, m) for w in PAPER_LINEUP for m in DIRECT_MODES])


def paper_llc(seed: int) -> PaperCells:
    short = {}
    for w, (name, factory) in SHORT_WORKLOADS.items():
        register_workload(name, factory)
        short[w] = name
    return PaperCells([(short.get(w, w), m) for w in PAPER_LINEUP
                       for m in LLC_MODES])


class _Latencies:
    """Per-request latencies of one served window (for p50 / p99.9)."""

    def __init__(self) -> None:
        self.values: list[float] = []

    def on_event(self, ts: float, event) -> None:
        if type(event) is ServiceComplete:
            self.values.append(event.latency)


class ServeLadder(Workload):
    """One open-loop ladder sweep over the serving layer under GPM."""

    def __init__(self, seed: int) -> None:
        self.trace = seed % SERVE_TRACES
        self.items = {f"rate{r}": (lambda r=r: self._point(r)) for r in SERVE_LADDER}
        self._points: dict[str, dict] = {}

    def _point(self, rate: int):
        config = ServiceConfig(mode="gpm", tenants=SERVE_TENANTS, rate=float(rate),
                               duration=SERVE_WINDOW_S, seed=self.trace)
        system = make_system(Mode.GPM)
        latencies = _Latencies()
        system.events.subscribe(latencies.on_event)
        return system, run_service(config, system=system)["summary"], latencies.values

    def check(self, label, output):
        system, summary, latencies = output
        problems = []
        for name, _, holds in serve_invariants(system):
            ok, detail = holds()
            if not ok:
                problems.append(f"{name}: {detail}")
        if label not in self._points:
            self._points[label] = self._describe(label, summary, latencies)
        return {f"serve/trace{self.trace}/{label}": digest(summary_json(summary))}, problems

    @staticmethod
    def _describe(label: str, summary: dict, latencies: list[float]) -> dict:
        lat = np.asarray(latencies, dtype=np.float64)
        p50, p999 = (np.percentile(lat, [50.0, 99.9]) * 1e6 if lat.size
                     else (None, None))
        rate = int(label.removeprefix("rate"))
        return {
            "offered_ops_s": rate * SERVE_TENANTS,
            "completed": summary["completed"], "shed": summary["shed"],
            "latency_samples": int(lat.size),
            "p50_us": None if p50 is None else float(p50),
            "p999_us": None if p999 is None else float(p999),
            "goodput_ops_s": summary["throughput_ops_per_s"],
            "batch_occupancy": summary["batch_occupancy"],
            "coalesced_share": (summary["coalesced"] / summary["completed"]
                                if summary["completed"] else 0.0),
            "sim_s": summary["elapsed"],
        }

    def diagnostics(self) -> dict:
        points = [self._points[label] for label in self.items if label in self._points]
        return {
            "trace": self.trace,
            "points": points,
            "max_rate_ops_s": max_rate(points),
            "p999_us_at_500k": self._points.get("rate500000", {}).get("p999_us"),
            "goodput_ops_s_at_1500k":
                self._points.get("rate1500000", {}).get("goodput_ops_s"),
            "sim_s_per_pass": sum(p["sim_s"] for p in points),
        }


class CrashSweep(Workload):
    """Crash-state exploration and a litmus campaign, all under GPM."""

    def __init__(self, seed: int) -> None:
        self.offset = seed % CRASH_STRIDE
        self.items = {t: (lambda t=t: self._sweep(t)) for t in CRASH_TARGETS}
        self.items["litmus"] = lambda: run_campaign(
            LITMUS_TESTS, LITMUS_SEED, jobs=1, corpus=False)
        self._states: dict[str, int] = {}

    def _sweep(self, target: str):
        frontiers = CrashExplorer(target, Mode.GPM).record()
        return len(frontiers), [explorer.explore_frontier(target, "gpm", f)
                                for f in frontiers[self.offset::CRASH_STRIDE]]

    def check(self, label, output):
        if label == "litmus":
            judged = sum(m["frontiers_explored"] for m in output.matrix)
            self._states.setdefault(label, judged)
            problems = [f"{m['config']} test {m['index']}: "
                        f"{m['violations'][0]['name']}"
                        for m in output.matrix_failures]
            problems += [f"sentinel mutant {m} not caught"
                         for m in output.uncaught_mutants]
            return {"crash/litmus/judged": judged}, problems
        recorded, results = output
        self._states.setdefault(label, len(results))
        problems = [f"frontier {r.frontier.spec()}: {r.status} "
                    f"{r.error or '; '.join(v.name for v in r.failed_verdicts)}"
                    for r in results if r.status != "ok"]
        return {f"crash/{label}/frontiers": recorded}, problems

    def diagnostics(self) -> dict:
        return {"offset": self.offset,
                "states_per_pass": sum(v for k, v in self._states.items()
                                       if k != "litmus"),
                "litmus_states_per_pass": self._states.get("litmus")}


WORKLOADS = {
    "paper-direct": paper_direct,
    "paper-llc": paper_llc,
    "serve-ladder": ServeLadder,
    "crash-sweep": CrashSweep,
}
