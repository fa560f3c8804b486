"""Micro-benchmarks of small drains: the Python-int route against numpy.

``test_eager_drain``: 200 eager drains of one warp round each, as under a
crash injector, with DDIO off so every drain is one Optane epoch.  Each
round holds ``n`` scattered 8 B stores, one per 64 B line, so no two merge:
the worst shape for the list route.  Both routes of
``_BlockEngine._drain_queue`` take the same queue entries; the engine's
``LIST_DRAIN_SEGMENTS`` is pinned per case to force one.  1, 8, 32 and 64
segments sit at or below the shipped cutoff, where the list route must be
the faster one; 256 sits above it, where the vectorized route must win.

``test_write_epoch``: 200 ``OptaneModel.write_epoch`` calls of ``n``
scattered segments, on the epoch core or on the array arithmetic of
``ReferenceOptane`` (``tests/sim/test_optane_properties.py``).

The tables are in ``docs/performance.md``, "Small drains from lists".
"""

import sys
from pathlib import Path

import pytest

from repro import System
from repro.core.persist import persist_window
from repro.gpu.device import _BlockEngine
from repro.gpu.kernel import LaunchAccounting
from repro.sim import Machine

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "sim"))
from test_optane_properties import ReferenceOptane  # noqa: E402

_CALLS = 200
_STORE = 8
_STRIDE = 64
_ROUTES = pytest.mark.parametrize("lists", [True, False], ids=["lists", "arrays"])

DRAIN_SIZES = [1, 8, 32, 64, 256]
EPOCH_SIZES = [1, 8, 32, 64]


def test_sizes_bracket_the_cutoffs():
    below = [n for n in DRAIN_SIZES if n <= _BlockEngine.LIST_DRAIN_SEGMENTS]
    assert max(below) == _BlockEngine.LIST_DRAIN_SEGMENTS < max(DRAIN_SIZES)


def _segments(n):
    return [_STRIDE * i for i in range(n)], [_STORE] * n


@_ROUTES
@pytest.mark.parametrize("n", DRAIN_SIZES)
def test_eager_drain(benchmark, n, lists):
    system = System()
    machine = system.machine
    region = machine.alloc_pm("pm", _STRIDE * max(DRAIN_SIZES))
    acct = LaunchAccounting()
    engine = _BlockEngine(machine, acct)
    engine.LIST_DRAIN_SEGMENTS = n if lists else n - 1
    starts, lengths = _segments(n)

    def run():
        for _ in range(_CALLS):
            engine._queue.append((region, starts, lengths, 1))
            engine._drain_queue()

    with persist_window(system):
        machine.set_ddio(False)
        benchmark.pedantic(run, rounds=5, iterations=1)
    # Every scattered store is its own run and its own PCIe transaction.
    drains = acct.host_write_tx // n
    assert drains >= _CALLS and acct.host_write_bytes == drains * n * _STORE
    assert machine.stats.pm_bytes_written == acct.host_write_bytes


@pytest.mark.parametrize("reference", [False, True], ids=["core", "reference"])
@pytest.mark.parametrize("n", EPOCH_SIZES)
def test_write_epoch(benchmark, n, reference):
    machine = Machine()
    if reference:
        machine.optane = ReferenceOptane(machine.config, machine.events)
    region = machine.alloc_pm("pm", _STRIDE * max(EPOCH_SIZES))
    optane = machine.optane
    starts, lengths = _segments(n)

    def run():
        for _ in range(_CALLS):
            optane.write_epoch(region, starts, lengths)

    benchmark.pedantic(run, rounds=5, iterations=1)
    assert machine.stats.pm_bytes_written % (n * _STORE) == 0
