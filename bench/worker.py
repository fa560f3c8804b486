"""Measure one benchmark workload in this process; print its record as JSON.

``run.py`` starts this script in a fresh process for every measurement::

    python3 bench/worker.py --workload NAME --seed N --seconds T --trace 0|1

It imports the program, builds the workload's inputs, stamps the moment it
is ready (``ready_at``, CLOCK_MONOTONIC, which the parent compares with the
moment it started the process), then runs whole passes for ``T`` seconds:
a pass starts only while the median pass so far still fits.  Each item is
timed alone; its output is checked afterwards, outside the timed region.
Item times are scaled to the nominal host (see ``hostref``) by probes taken
at most ``PROBE_EVERY_S`` of timed work apart; ``pass_wall_s`` keeps the raw
sums.  ``peak_rss_mb`` is read after the first pass, so it does not grow
with the number of passes a run happens to fit.  ``--setup-only`` exits
right after the ready stamp.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostref  # noqa: E402
import suite  # noqa: E402  (needs the program on sys.path)

#: timed work between two host-speed probes
PROBE_EVERY_S = 0.25


def run_item(workload, label: str, run, span, golden: dict) -> tuple[float, list[str]]:
    """Time one item, then check its output untimed: (seconds, problems)."""
    t0 = time.perf_counter()
    try:
        with span("item", label):
            output = run()
        elapsed = time.perf_counter() - t0
        pinned, problems = workload.check(label, output)
    except Exception as exc:  # one failed item must not stop the run
        traceback.print_exc()
        return time.perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"]
    for key, value in pinned.items():
        if key not in golden:
            problems.append(f"no golden value for {key}")
        elif golden[key] != value:
            problems.append(f"{key} is {value!r}, golden {golden[key]!r}")
    return elapsed, problems


def measure(workload, seconds: float, golden: dict, tracer=None) -> dict:
    span = tracer.span if tracer is not None else (lambda cat, name: nullcontext())
    last = list(workload.items)[-1]
    pass_s: list[float] = []        # scaled to the nominal host (hostref)
    pass_wall_s: list[float] = []   # raw item seconds
    pass_elapsed: list[float] = []  # whole passes, checks and probes included
    item_s: dict[str, list[float]] = {label: [] for label in workload.items}
    attempted = failed = 0
    problems: list[str] = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        workload.before_pass()
        scaled = wall = 0.0
        pending: list[tuple[str, float]] = []
        before = hostref.probe()
        with span("pass", f"pass {len(pass_s)}"):
            for label, run in workload.items.items():
                elapsed, found = run_item(workload, label, run, span, golden)
                # Every item starts from a collected heap, so neither its
                # time nor the peak RSS depends on when the collector last ran.
                gc.collect()
                attempted += 1
                failed += bool(found)
                problems += [f"{label}: {p}" for p in found]
                wall += elapsed
                pending.append((label, elapsed))
                if sum(e for _, e in pending) >= PROBE_EVERY_S or label == last:
                    after = hostref.probe()
                    factor = hostref.scale(before, after)
                    for done, raw in pending:
                        item_s[done].append(raw * factor)
                        scaled += raw * factor
                    pending, before = [], after
        pass_s.append(scaled)
        pass_wall_s.append(wall)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        pass_elapsed.append(time.perf_counter() - pass_start)
        if time.perf_counter() - start + statistics.median(pass_elapsed) > seconds:
            break
    return {"passes": len(pass_s), "pass_s": pass_s, "pass_wall_s": pass_wall_s,
            "item_s": item_s, "peak_rss_mb": peak_rss_mb,
            "attempted": attempted, "failed": failed, "problems": problems[:20]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = suite.WORKLOADS[args.workload](args.seed)
    golden = suite.load_golden()
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        record = measure(workload, args.seconds, golden, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        ready_at=ready_at, diagnostics=workload.diagnostics(),
    )
    if tracer is not None:
        record["layers"] = tracer.layer_metrics(record["passes"],
                                                sum(record["pass_wall_s"]))
        record["layer_detail"] = tracer.detail()
        record["chrome"] = tracer.chrome_events(
            list(suite.WORKLOADS).index(args.workload), args.workload)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
