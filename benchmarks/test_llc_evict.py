"""Micro-benchmark of the LLC capacity-eviction write-back.

One ``install_writes`` of a 2 MiB region into a full 2 MiB DDIO window
evicts every cached line in one burst - the shape of a BLK or DNN
checkpoint under eADR.  The cached lines come from two regions interleaved
in 512-line chunks, so the burst crosses 64 same-region runs.

The shipped path drains each run with one vectorized ``write_epochs`` call
(see ``docs/performance.md``, "LLC write-back path"); the reference twin
pops and drains one line per ``write_epoch`` call, the historical loop.
"""

import numpy as np
import pytest

from repro.sim import Machine, SystemConfig
from repro.sim.cache import LastLevelCache
from repro.sim.events import LlcEvict

_LINE = 64
_LINES = 32768
_CHUNK = 512


class _PerLineLlc(LastLevelCache):
    def _evict_over_capacity(self):
        evicted = 0
        while len(self._dirty) > self._capacity_lines:
            _, (region, line) = self._dirty.popitem(last=False)
            start = line * self._line
            self._optane.write_epoch(region, [start], [min(self._line, region.size - start)])
            evicted += 1
        if evicted:
            self._events.emit(LlcEvict(lines=evicted))


def _full_llc(per_line: bool) -> Machine:
    machine = Machine(SystemConfig().with_overrides(llc_ddio_bytes=_LINES * _LINE))
    if per_line:
        machine.llc = _PerLineLlc(machine.config, machine.events, machine.optane)
    half = _LINES // 2 * _LINE
    a, b = machine.alloc_pm("a", half), machine.alloc_pm("b", half)
    for offset in range(0, half, _CHUNK * _LINE):
        for region in (a, b):
            region.visible[offset:offset + _CHUNK * _LINE] = 0x3C
            machine.llc.install_writes(region, [offset], [_CHUNK * _LINE])
    machine.alloc_pm("c", _LINES * _LINE)
    return machine


@pytest.mark.parametrize("per_line", [False, True], ids=["batched", "per-line"])
def test_eviction_burst(benchmark, per_line):
    """A 32,768-line eviction burst over two interleaved regions."""
    machines = []

    def setup():
        machines[:] = [_full_llc(per_line)]
        return (machines[0],), {}

    def run(machine):
        incoming = machine.region("c")
        machine.llc.install_writes(incoming, [0], [incoming.size])

    benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    machine = machines[0]
    assert machine.stats.llc_evictions == _LINES
    assert (machine.region("b").persisted_view(np.uint8) == 0x3C).all()
