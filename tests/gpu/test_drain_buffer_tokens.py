"""Pending drain batches are keyed by Region.token, never by id().

Regression for the same id-reuse aliasing class already fixed twice: the
Optane sequentiality streams (PR: stream identity) and the LLC dirty
lines.  A region freed and re-allocated while a kernel still holds
unfenced stores must never have its segments merged into the dead
region's bucket — CPython happily hands the new object the dead one's
``id()``.
"""

import numpy as np

from repro.gpu.kernel import _WarpDrainBuffer


class TestDrainBufferTokenKeying:
    def test_buckets_key_by_region_token(self, machine):
        r = machine.alloc_pm("x", 1024)
        buf = _WarpDrainBuffer()
        buf.add_many(1, [(r, 8, 4), (r, 16, 4)])
        buf.add_arrays(2, r, np.array([32], dtype=np.int64),
                       np.array([4], dtype=np.int64))
        for round_no in (1, 2):
            assert list(buf.rounds[round_no]) == [r.token]

    def test_free_realloc_mid_kernel_never_merges(self, machine):
        # Repeat to give CPython every chance to hand the fresh Region the
        # dead one's id(); under token keying the two allocations must land
        # in distinct buckets every single time, via both append paths.
        for _ in range(32):
            buf = _WarpDrainBuffer()
            r1 = machine.alloc_pm("alias", 1024)
            t1 = r1.token
            buf.add_many(0, [(r1, 0, 4), (r1, 4, 4)])
            machine.free(r1)
            del r1
            r2 = machine.alloc_pm("alias", 1024)
            buf.add_many(0, [(r2, 128, 4)])
            buf.add_arrays(0, r2, np.array([256], dtype=np.int64),
                           np.array([4], dtype=np.int64))
            per_region = buf.rounds[0]
            assert set(per_region) == {t1, r2.token}
            dead_region, dead_starts, _ = per_region[t1]
            live_region, live_starts, _ = per_region[r2.token]
            assert dead_region is not live_region
            assert dead_starts == [0, 4]
            assert live_starts[0] == 128
            machine.free(r2)
            del r2
