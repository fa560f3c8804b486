"""Compare two benchmark result sets, metric by metric, against the bounds.

    python3 bench/compare.py A.json B.json

``A`` is the reference (usually the parent commit), ``B`` the candidate;
each is a ``results.json`` written by ``run.py --out``, holding any number
of untraced runs.  Per workload and end-to-end metric it prints each side's
median and quartiles over runs, the change of the median, the bound from
``BENCHMARK.json``, and a verdict:

* ``won``  - every run of B is better than every run of A;
* ``lost`` - B's median is worse than A's by more than the bound;
* ``unresolved`` - the spread (quartile distance over median, the larger of
  the two sides) exceeds the bound, so neither of the above can be told
  apart from noise - unless every run of one side beats every run of the
  other, which decides it anyway;
* ``same`` - otherwise.

Exits 1 when any metric is ``lost`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def summarize(values: list[float]) -> dict:
    """Median, quartiles (as ``statistics.quantiles(n=4)``) and count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(values: list[float]) -> float:
    s = summarize(values)
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """The comparison rule above, for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    worst_b = max(sign * v for v in b)
    best_b = min(sign * v for v in b)
    if worst_b < min(sign * v for v in a):
        return "won"
    b_all_worse = best_b > max(sign * v for v in a)
    med_a = statistics.median(a)
    worse = sign * (statistics.median(b) - med_a) / med_a if med_a else 0.0
    if max(spread(a), spread(b)) > bound and not b_all_worse:
        return "unresolved"
    return "lost" if worse > bound else "same"


def load_runs(path: str) -> dict[str, list[dict]]:
    with open(path) as fh:
        runs = json.load(fh)["runs"]
    by_workload: dict[str, list[dict]] = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        metrics = json.load(fh)["end_to_end"]
    a, b = load_runs(argv[0]), load_runs(argv[1])
    bad = 0
    print(f"{'workload':14} {'metric':12} {'unit':5} "
          f"{'A median [q1, q3] n':>34} {'B median [q1, q3] n':>34} "
          f"{'delta':>8} {'bound':>6}  verdict")
    for workload in sorted(set(a) & set(b)):
        for m in metrics:
            name = m["name"]
            va = [r["metrics"][name]["value"] for r in a[workload]]
            vb = [r["metrics"][name]["value"] for r in b[workload]]
            sa, sb = summarize(va), summarize(vb)
            delta = (sb["median"] - sa["median"]) / sa["median"]
            v = verdict(va, vb, m["better"], m["bound"])
            bad += v in ("lost", "unresolved")
            side = "{median:10.4f} [{q1:.4f}, {q3:.4f}] {n:2d}"
            print(f"{workload:14} {name:12} {m['unit']:5} "
                  f"{side.format(**sa):>34} {side.format(**sb):>34} "
                  f"{delta:+8.1%} {m['bound']:6.0%}  {v}")
    for workload in sorted(set(a) ^ set(b)):
        print(f"{workload}: only in {'A' if workload in a else 'B'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
