"""Dim3 and thread-identity math."""

import numpy as np
import pytest

from repro.gpu.hierarchy import Dim3, ThreadId, warps_in_block, warps_in_grid


class TestDim3:
    def test_of_int(self):
        assert Dim3.of(8) == Dim3(8, 1, 1)

    def test_of_tuple(self):
        assert Dim3.of((2, 3)) == Dim3(2, 3, 1)
        assert Dim3.of((2, 3, 4)) == Dim3(2, 3, 4)

    def test_of_dim3_identity(self):
        d = Dim3(4)
        assert Dim3.of(d) is d

    def test_count(self):
        assert Dim3(2, 3, 4).count == 24

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Dim3(0)

    def test_flatten_unflatten_roundtrip(self):
        d = Dim3(3, 4, 5)
        for flat in range(d.count):
            assert d.flatten(*d.unflatten(flat)) == flat

    def test_x_fastest(self):
        d = Dim3(4, 4)
        assert d.flatten(1, 0, 0) == 1
        assert d.flatten(0, 1, 0) == 4

    def test_iter(self):
        assert tuple(Dim3(1, 2, 3)) == (1, 2, 3)

    @pytest.mark.parametrize("dims", [np.int64(2), np.int32(2), np.uint8(2)],
                             ids=["int64", "int32", "uint8"])
    def test_of_numpy_integer(self, dims):
        d = Dim3.of(dims)
        assert d == Dim3(2)
        assert type(d.x) is int

    def test_of_tuple_of_numpy_integers(self):
        d = Dim3.of((np.int64(2), np.int32(3)))
        assert d == Dim3(2, 3)
        assert all(type(v) is int for v in d)

    @pytest.mark.parametrize("dims", [2.0, np.float64(2.0), "2", None, (2.0, 1)],
                             ids=["float", "np-float", "str", "none", "tuple-float"])
    def test_of_rejects_non_integers(self, dims):
        with pytest.raises(TypeError, match="must be at most three integers, got") as info:
            Dim3.of(dims)
        assert "\n" not in str(info.value)
        assert repr(2.0 if isinstance(dims, tuple) else dims) in str(info.value)

    def test_launch_takes_numpy_integer_extents(self):
        from repro.workloads.base import Mode, make_system

        system = make_system(Mode.GPM)
        seen = []
        result = system.gpu.launch(lambda ctx: seen.append(ctx.global_id),
                                   np.int64(2), np.int32(3))
        assert result.threads == 6 and result.warps == 2
        assert seen == list(range(6))

    def test_launch_rejects_float_extent(self):
        from repro.workloads.base import Mode, make_system

        system = make_system(Mode.GPM)
        with pytest.raises(TypeError, match="got 2.0"):
            system.gpu.launch(lambda ctx: None, 2.0, 32)


class TestThreadId:
    def _tid(self, block_flat, thread_flat, block_dim=128, grid=4):
        return ThreadId(Dim3(grid), Dim3(block_dim), block_flat, thread_flat)

    def test_global_id(self):
        assert self._tid(0, 5).global_id == 5
        assert self._tid(2, 5).global_id == 2 * 128 + 5

    def test_lane(self):
        assert self._tid(0, 33).lane == 1
        assert self._tid(0, 31).lane == 31

    def test_warp_in_block(self):
        assert self._tid(0, 31).warp_in_block == 0
        assert self._tid(0, 32).warp_in_block == 1

    def test_warp_global(self):
        assert self._tid(1, 0).warp_global == 4  # 128/32 warps per block
        assert self._tid(1, 96).warp_global == 7

    def test_multidim_indices(self):
        tid = ThreadId(Dim3(2, 2), Dim3(4, 4), 3, 5)
        assert tid.block_idx == (1, 1, 0)
        assert tid.thread_idx == (1, 1, 0)


class TestWarpCounts:
    def test_exact_multiple(self):
        assert warps_in_block(Dim3(64)) == 2

    def test_partial_warp_rounds_up(self):
        assert warps_in_block(Dim3(33)) == 2

    def test_grid(self):
        assert warps_in_grid(Dim3(3), Dim3(64)) == 6
