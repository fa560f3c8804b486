"""Micro-benchmark: a kvs record run and one thread-count crash replay.

``repro check kvs`` records its frontiers in one reference run under the
``FrontierRecorder`` and replays each ``threads:N`` frontier with
``CrashInjector.arm(N)`` (``explore_frontier``: run to the crash, recover,
judge).  Both take the warp lane: a plain warp reports its retirement as
one-thread retirements, and only the warp a replayed crash cuts runs
thread at a time.  The ``scalar`` cases run the same work under
``scalar_lane()``, the reference lane, and must give the same frontier
list and the same verdicts.

The replayed frontier is the last ``threads:`` frontier of kvs under
``gpm`` that falls inside a warp (``threads:273``: of the third
three-warp set launch, the last warp runs its first 17 threads per
thread, then crashes).  The table is in
``docs/performance.md``, "Thread-count crashes on the warp lane".
"""

import contextlib

import pytest

from repro.check import CrashExplorer
from repro.check.explorer import explore_frontier
from repro.gpu.warp import scalar_lane

TARGET = "kvs"


def _record():
    return [(f.spec(), f.kind, f.description)
            for f in CrashExplorer(TARGET).record()]


def _cut_frontier():
    threads = [f for f in CrashExplorer(TARGET).record()
               if f.mechanism == "threads" and f.value % 32]
    return threads[-1]


def _replay(frontier):
    result = explore_frontier(TARGET, "gpm", frontier)
    return result.status, [(v.name, v.ok, v.detail) for v in result.verdicts]


@pytest.mark.parametrize("lane", ["warp", "scalar"])
@pytest.mark.parametrize("stage", ["record", "replay"])
def test_thread_replay(benchmark, stage, lane):
    frontier = _cut_frontier()
    run = _record if stage == "record" else (lambda: _replay(frontier))
    expected = run()
    with scalar_lane() if lane == "scalar" else contextlib.nullcontext():
        got = benchmark.pedantic(run, rounds=5, iterations=1)
    assert got == expected
    if stage == "replay":
        assert got[0] == "ok"
