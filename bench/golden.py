"""Regenerate ``golden.json``: the pinned outputs every benchmark run checks.

    python3 bench/golden.py

Runs one pass of every workload - every serve trace, since the serve seed
selects among them - and records what each item's check pins: a sha256 per
paper cell and per serve ladder point, each crash target's recorded frontier
count, and the litmus campaign's judged crash states.  Run it only when a
change is meant to alter simulated results, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import suite  # noqa: E402  (needs the program on sys.path)


def generate() -> dict:
    golden: dict = {}
    for name, factory in suite.WORKLOADS.items():
        seeds = range(suite.SERVE_TRACES) if name == "serve-ladder" else [0]
        for seed in seeds:
            workload = factory(seed)
            workload.before_pass()
            for label, run in workload.items.items():
                pinned, problems = workload.check(label, run())
                if problems:
                    raise SystemExit(f"{name} {label}: {problems}")
                golden.update(pinned)
            print(f"{name} seed {seed}: {len(golden)} pinned", file=sys.stderr)
    return dict(sorted(golden.items()))


if __name__ == "__main__":
    suite.GOLDEN_PATH.write_text(json.dumps(generate(), indent=1) + "\n")
