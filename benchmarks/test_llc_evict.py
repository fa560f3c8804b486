"""Micro-benchmarks of the LLC dirty set, against the reference model.

``test_eviction_burst``: one ``install_writes`` of a 2 MiB region into a
full 2 MiB DDIO window evicts every cached line in one burst - the shape
of a BLK or DNN checkpoint under eADR.  The cached lines come from two
regions interleaved in 512-line chunks, so the burst crosses 64
same-region runs.

``test_fs_write_then_drop``: a CAP-fs ``fs.write`` + ``fsync`` - one
single-segment 64 KiB install, then a ``drop_range`` of it once the bulk
flush has persisted the bytes.

``test_warp_drain_then_flush``: a DDIO-on warp drain - a 3-segment install
of a few lines - then a ``flush_range`` over them.

``test_grouped_ddio_drain``: 1,152 warp drains of one 128 B run each,
SRAD's per-warp shape under GPM-eADR, delivered as one
``Machine.io_write_arrival_groups`` call against the same arrivals as
sequential ``io_write_arrival`` calls.

``test_flag_store_and_flush``: a 4 B CPU store and a ``flush_range`` of
it, the shape of every ``TransactionFlag`` begin and commit.

The shipped cache keeps per-line LRU stamps in arrays (see
``docs/performance.md``, "LLC write-back path"); the reference is the
``OrderedDict`` model of ``tests/sim/test_cache.py``, which walks every
line in Python and evicts one ``write_epoch`` per line.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.sim import Machine, SystemConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "sim"))
from test_cache import ReferenceLlc  # noqa: E402

_LINE = 64
_LINES = 32768
_CHUNK = 512

_MODELS = pytest.mark.parametrize("reference", [False, True], ids=["shipped", "reference"])


def _machine(reference: bool, llc_bytes: int = _LINES * _LINE) -> Machine:
    machine = Machine(SystemConfig().with_overrides(llc_ddio_bytes=llc_bytes))
    if reference:
        machine.llc = ReferenceLlc(machine.config, machine.events, machine.optane)
    return machine


def _full_llc(reference: bool) -> Machine:
    machine = _machine(reference)
    half = _LINES // 2 * _LINE
    a, b = machine.alloc_pm("a", half), machine.alloc_pm("b", half)
    for offset in range(0, half, _CHUNK * _LINE):
        for region in (a, b):
            region.visible[offset:offset + _CHUNK * _LINE] = 0x3C
            machine.llc.install_writes(region, [offset], [_CHUNK * _LINE])
    machine.alloc_pm("c", _LINES * _LINE)
    return machine


@_MODELS
def test_eviction_burst(benchmark, reference):
    """A 32,768-line eviction burst over two interleaved regions."""
    machines = []

    def setup():
        machines[:] = [_full_llc(reference)]
        return (machines[0],), {}

    def run(machine):
        incoming = machine.region("c")
        machine.llc.install_writes(incoming, [0], [incoming.size])

    benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    machine = machines[0]
    assert machine.stats.llc_evictions == _LINES
    assert (machine.region("b").persisted_view(np.uint8) == 0x3C).all()


@_MODELS
def test_fs_write_then_drop(benchmark, reference):
    """A 64 KiB single-segment install, then a drop of the same range."""
    machine = _machine(reference)
    region = machine.alloc_pm("file", 1 << 20)
    size = 64 * 1024

    def run():
        machine.llc.install_writes(region, [4096], [size])
        machine.llc.drop_range(region, 4096, size)

    benchmark(run)
    assert len(machine.llc) == 0
    assert machine.stats.llc_ddio_fills > 0
    assert machine.stats.llc_ddio_hits == 0


@_MODELS
def test_warp_drain_then_flush(benchmark, reference):
    """A 3-segment install of five lines, then a flush over them."""
    machine = _machine(reference)
    region = machine.alloc_pm("log", 1 << 16)
    region.visible[:] = 0x5A
    starts, lengths = [0, 4096, 8192 + 32], [64, 128, 64]

    def run():
        machine.llc.install_writes(region, starts, lengths)
        machine.llc.flush_range(region, 0, 8192 + 96)

    benchmark(run)
    assert len(machine.llc) == 0
    assert (region.persisted[8192:8192 + 128] == 0x5A).all()


_GROUPS = 1152
_RUN = 128


@pytest.mark.parametrize("grouped", [True, False], ids=["grouped", "sequential"])
def test_grouped_ddio_drain(benchmark, grouped):
    """1,152 one-run groups into the LLC, grouped or one call per group."""
    starts = [g * _RUN for g in range(_GROUPS)]
    lengths = [_RUN] * _GROUPS
    bounds = list(range(_GROUPS + 1))
    machines = []

    def setup():
        machine = Machine()
        machines[:] = [machine]
        return (machine, machine.alloc_pm("grid", _GROUPS * _RUN)), {}

    def run(machine, region):
        if grouped:
            machine.io_write_arrival_groups(region, starts, lengths, bounds)
        else:
            for g in range(_GROUPS):
                machine.io_write_arrival(region, starts[g:g + 1], lengths[g:g + 1])

    benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    machine = machines[0]
    assert machine.stats.llc_ddio_fills == _GROUPS * _RUN // _LINE
    assert len(machine.llc) == _GROUPS * _RUN // _LINE


@_MODELS
def test_flag_store_and_flush(benchmark, reference):
    """A 4 B store to a flag word, then a flush of it."""
    machine = _machine(reference)
    region = machine.alloc_pm("flag", 64)

    def run():
        region.visible[:4] += 1
        machine.cpu_store_arrival(region, 0, 4)
        machine.llc.flush_range(region, 0, 4)

    benchmark(run)
    assert len(machine.llc) == 0
    assert (region.persisted == region.visible).all()
