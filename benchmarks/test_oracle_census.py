"""Micro-benchmark: oracle crash states from the census against replays.

``CrashExplorer.record`` takes an image census of its reference run, so a
recorded event frontier is judged by powering a fresh system up over its
durable state and recovering it (``census``); ``replay`` judges the same
frontier the reference way, re-running a fresh system to it.  Both must
give the same verdicts.  ``record`` times the reference run with its
census.

The frontier is the middle event frontier of each target under ``gpm``.
For ``checkpointed-dnn`` a replay retrains LeNet up to the frontier, which
the census skips.  The table is in ``docs/performance.md``, "Oracle crash
states from the census".
"""

from dataclasses import replace

import pytest

from repro.check import CrashExplorer
from repro.check.explorer import explore_frontier

TARGETS = ("kvs", "checkpointed-dnn")


def _frontier(target):
    events = [f for f in CrashExplorer(target).record()
              if f.mechanism == "event"]
    return events[len(events) // 2]


def _judge(target, frontier):
    result = explore_frontier(target, "gpm", frontier)
    return result.status, [(v.name, v.ok, v.detail) for v in result.verdicts]


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("stage", ["record", "census", "replay"])
def test_oracle_census(benchmark, target, stage):
    frontier = _frontier(target)
    expected = _judge(target, replace(frontier, state=None))
    if stage == "record":
        frontiers = benchmark.pedantic(CrashExplorer(target).record,
                                       rounds=3, iterations=1)
        assert frontiers[frontier.value] == frontier
        return
    if stage == "replay":
        frontier = replace(frontier, state=None)
    got = benchmark.pedantic(lambda: _judge(target, frontier),
                             rounds=5, iterations=1)
    assert got == expected and got[0] == "ok"
