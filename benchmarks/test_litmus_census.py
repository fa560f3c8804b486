"""Micro-benchmark: one litmus point judged from the image census.

``execute_point`` judges every event frontier it selects from the image
census of its reference run and replays only thread-count frontiers.  The
``replay`` case hands ``execute_point`` no census, so every selected
frontier is judged through ``crash_images`` (the reference path), and its
payload must equal the census case's.

The point is litmus test 42:9 at ``strict:window:eadr``: 18 selected event
frontiers and 2 thread-count ones.  The eADR platform keeps DDIO on, so
every durable write sits in a dirty LLC line that the census overlays as
the crash drain would write it back.  The table is in
``docs/performance.md``, "Crash states from the reference run".
"""

import pytest

from repro.check import litmus

TEST = litmus.generate_test(42, 9)
POINT = "strict:window:eadr"


def _execute():
    return litmus.execute_point(TEST.payload(), POINT)


def _replay_every_frontier(monkeypatch):
    record = litmus.record_frontiers
    monkeypatch.setattr(litmus, "record_frontiers",
                        lambda test, point, **kw: record(test, point, census=False))


@pytest.mark.parametrize("route", ["census", "replay"])
def test_execute_point(benchmark, monkeypatch, route):
    expected = _execute()
    if route == "replay":
        _replay_every_frontier(monkeypatch)
    payload = benchmark.pedantic(_execute, rounds=5, iterations=1)
    assert payload == expected
    assert payload["ok"] and payload["frontiers_explored"] == 20


def test_census_payload_equals_replays(monkeypatch):
    # Verdicts equal on a point with violations too: the fence-order
    # sentinel breaks round ordering at some event frontiers.
    census = litmus.execute_point(TEST.payload(), POINT, mutant="fence-order")
    _replay_every_frontier(monkeypatch)
    replayed = litmus.execute_point(TEST.payload(), POINT, mutant="fence-order")
    assert census == replayed
