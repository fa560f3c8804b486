"""Micro-benchmarks of the bulk data paths.

Three hot paths are measured (see ``docs/performance.md``, "Bulk data
paths"):

* the CAP persist pipeline - DMA into the pinned bounce buffer, then the
  host-side copy and persist out of it;
* ``stream_copy`` - lowered to one ``np.copyto`` through ``BulkTransfer``;
* ragged byte-index construction (warp drains, ``persist_ranges``) - built
  in place over the shared ``iota64`` ramp instead of per-call arange /
  concatenate temporaries.

The ragged-index bench has a naive reference twin so a regression in the
optimised idiom shows up as a shrinking gap, not just noise.
"""

import numpy as np

from repro.sim import bulk
from repro.workloads.base import Mode, make_system

_MB = 1 << 20


def _cap_system():
    from repro.core.mapping import gpm_map
    from repro.workloads.base import ModeDriver

    system = make_system(Mode.CAP_MM)
    driver = ModeDriver(system, Mode.CAP_MM)
    hbm = system.machine.alloc_hbm("bench.src", 4 * _MB)
    hbm.view(np.uint8)[:] = 0x5A
    pm = gpm_map(system, "/pm/bench.dst", 4 * _MB, create=True)
    return driver.cap, hbm, pm.region


def test_cap_persist_pipeline(benchmark):
    """The full DMA -> bounce -> CPU persist pipeline, 4 MB per round."""
    cap, hbm, pm = _cap_system()

    def run():
        for _ in range(8):
            cap.persist_output(hbm, 0, pm, 0, 4 * _MB)

    benchmark.pedantic(run, rounds=3, iterations=1)
    assert pm.persisted_view(np.uint8)[0] == 0x5A


def test_stream_copy_bulk(benchmark):
    """Whole-region device-side stream_copy (one BulkTransfer per call)."""
    system = make_system(Mode.GPM)
    src = system.machine.alloc_hbm("bench.a", 4 * _MB)
    dst = system.machine.alloc_hbm("bench.b", 4 * _MB)
    src.view(np.uint8)[:] = 0xA5

    def run():
        for _ in range(16):
            system.gpu.stream_copy(dst, 0, src, 0, 4 * _MB, persist=False)

    benchmark.pedantic(run, rounds=3, iterations=1)
    assert dst.view(np.uint8)[-1] == 0xA5


def _ragged(n_segments: int, seg_bytes: int = 48, stride: int = 64):
    offsets = np.arange(n_segments, dtype=np.int64) * stride
    nbytes = np.full(n_segments, seg_bytes, dtype=np.int64)
    return offsets, nbytes


def test_ragged_indices_inplace(benchmark):
    """The shipped idiom (``WarpContext._ragged_indices``,
    ``Region.persist_ranges``): cumsum in place + shared iota64 ramp."""
    offsets, nbytes = _ragged(4096)

    def run():
        for _ in range(100):
            total = int(nbytes.sum())
            before = np.cumsum(nbytes)
            before -= nbytes
            np.subtract(offsets, before, out=before)
            idx = np.repeat(before, nbytes)
            idx += bulk.iota64(total)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_ragged_indices_concatenate_reference(benchmark):
    """The historical idiom: one arange + concatenate per segment batch."""
    offsets, nbytes = _ragged(4096)

    def run():
        for _ in range(100):
            np.concatenate([
                np.arange(off, off + n, dtype=np.int64)
                for off, n in zip(offsets.tolist(), nbytes.tolist())
            ])

    benchmark.pedantic(run, rounds=3, iterations=1)
