"""The repository benchmark: four workloads, checked outputs, timed end to end.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds T]
                         [--trace 0|1] [--out DIR]

Each measurement runs in a fresh ``worker.py`` process, one at a time, on
one thread.  For every workload run this script

1. times a fixed ~0.5 s pure-Python + numpy loop before and after
   (``host_ref_s``: shows drift of the shared host, never gated);
2. starts the measuring worker (``pass_s``, ``peak_rss_mb``);
3. starts ``SETUP_RUNS`` set-up-only workers, half before and half after
   the measuring one, and takes ``setup_s`` as their median time from
   process start to ready (raw seconds: import time does not track the
   ``hostref`` probe, and scaling it only added noise);
4. with ``--trace 1``, splits ``T`` between an untraced and a traced worker,
   so per-layer numbers come with their tracing overhead while end-to-end
   numbers still come from the untraced one.

The last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``): the end-to-end metrics, or with
``--trace 1`` the per-layer ones.  ``DIR/results.json`` collects every run's
full record (``compare.py`` reads it); traced runs also write
``DIR/layers.json`` and the Chrome trace ``DIR/trace.json``.  The exit
status is 1 when any output was wrong, and 2 when there is no program
under ``src/`` to measure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostref
from compare import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_RUNS = 4
WORKER_TIMEOUT_S = 150


def spawn(workload: str, seed: int, seconds: float, trace: int,
          setup_only: bool = False) -> tuple[dict, float]:
    """Run one worker; return its record and its set-up seconds."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record, record["ready_at"] - started


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 units: dict[str, str]) -> dict:
    drift_before = hostref.drift_probe()
    # Set-up samples straddle the measurement, so one slow spell of the
    # host cannot hold all of them.
    setups = [spawn(workload, seed, 0, 0, setup_only=True)[1]
              for _ in range(SETUP_RUNS // 2)]
    measured = seconds / 2 if trace else seconds
    main = spawn(workload, seed, measured, 0)[0]
    traced = spawn(workload, seed, measured, 1)[0] if trace else None
    setups += [spawn(workload, seed, 0, 0, setup_only=True)[1]
               for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    drift_after = hostref.drift_probe()

    values = {"pass_s": main["pass_s"], "setup_s": setups,
              "peak_rss_mb": [main["peak_rss_mb"]]}
    metrics = {name: {"value": summarize(v)["median"], "unit": units[name],
                      **summarize(v)} for name, v in values.items()}
    pass_s = metrics["pass_s"]["value"]
    diagnostics = dict(main["diagnostics"])
    # Work per pass becomes work per host second: sim_s_per_host_s,
    # states_per_host_s and so on.
    for key, value in main["diagnostics"].items():
        if key.endswith("_per_pass") and value:
            diagnostics[key.removesuffix("_per_pass") + "_per_host_s"] = value / pass_s
    runs = [main] + ([traced] if traced else [])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": all(r["failed"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "problems": [p for r in runs for p in r["problems"]],
        "metrics": metrics,
        "host_ref_s": {"before": drift_before, "after": drift_after},
        "pass_s": main["pass_s"],
        "pass_wall_s": main["pass_wall_s"],
        "item_median_s": {k: statistics.median(v)
                          for k, v in main["item_s"].items() if v},
        "diagnostics": diagnostics,
    }
    if traced:
        traced_pass = statistics.median(traced["pass_s"])
        layers = dict(traced["layers"])
        layers["trace.pass_s"] = traced_pass
        layers["trace.overhead_pct"] = 100.0 * (traced_pass / pass_s - 1.0)
        record["layers"] = layers
        record["layer_detail"] = traced["layer_detail"]
        record["chrome"] = traced["chrome"]
    return record


def report(record: dict) -> None:
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"passes {len(record['pass_s'])}  attempted {record['attempted']}  "
          f"failed {record['failed']}")
    for name, m in record["metrics"].items():
        print(f"  {name:12} {m['unit']:4} median {m['median']:.4f}  "
              f"q1 {m['q1']:.4f}  q3 {m['q3']:.4f}  n {m['n']}")
    ref = record["host_ref_s"]
    print(f"  host_ref_s   s    before {ref['before']:.4f}  "
          f"after {ref['after']:.4f}  (diagnostic)")
    for key, value in record["diagnostics"].items():
        if not isinstance(value, (list, dict)):
            print(f"  {key}: {value}")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")


def save(out: Path, records: list[dict]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    results = out / "results.json"
    runs = json.loads(results.read_text())["runs"] if results.exists() else []
    runs += [{k: v for k, v in r.items() if k not in ("layer_detail", "chrome")}
             for r in records]
    results.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    traced = [r for r in records if "layers" in r]
    if not traced:
        return
    layers_path = out / "layers.json"
    layers = json.loads(layers_path.read_text()) if layers_path.exists() else {}
    for r in traced:
        layers[r["workload"]] = {
            "seed": r["seed"], "metrics": r["layers"],
            "overhead": {"pass_s": r["metrics"]["pass_s"]["value"],
                         "traced_pass_s": r["layers"]["trace.pass_s"],
                         "overhead_pct": r["layers"]["trace.overhead_pct"]},
            "functions": r["layer_detail"],
        }
    layers_path.write_text(json.dumps(layers, indent=1) + "\n")
    (out / "trace.json").write_text(json.dumps(
        {"traceEvents": [e for r in traced for e in r["chrome"]]}) + "\n")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see bench/README.md).")
    parser.add_argument("--workload", default="all", choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    names = workloads if args.workload == "all" else [args.workload]
    records = [run_workload(w, args.seed, args.seconds, args.trace, units)
               for w in names]
    for record in records:
        report(record)
    save(args.out, records)

    out_metrics = {}
    for r in records:
        prefix = "" if len(records) == 1 else f"{r['workload']}."
        if args.trace:
            declared, values = spec["per_layer"], r["layers"]
        else:
            declared = spec["end_to_end"]
            values = {k: m["value"] for k, m in r["metrics"].items()}
        for m in declared:
            out_metrics[prefix + m["name"]] = {"value": values[m["name"]],
                                               "unit": m["unit"]}
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
