"""DMA engine, the CAP pipelines, and the GPUfs baseline."""

import numpy as np
import pytest

from repro import System
from repro.gpu import DeviceArray
from repro.host import CapEngine, CapMode, GPUFS_PAGE_BYTES, GpuFs, GpufsUnsupported
from repro.workloads import Mode, ModeDriver
from repro.workloads.checkpointed import CheckpointTarget


class TestDma:
    def test_device_to_host_copies(self, system):
        hbm = system.machine.alloc_hbm("h", 1024)
        dram = system.machine.alloc_dram("d", 1024)
        hbm.view(np.uint8)[:] = 5
        t = system.dma.device_to_host(hbm, 0, dram, 0, 1024)
        assert t >= system.config.dma_init_s
        assert (dram.view(np.uint8) == 5).all()

    def test_device_to_pm_is_not_durable(self, system):
        hbm = system.machine.alloc_hbm("h", 1024)
        pm = system.machine.alloc_pm("p", 1024)
        hbm.view(np.uint8)[:] = 5
        system.dma.device_to_host(hbm, 0, pm, 0, 1024)
        assert pm.unpersisted_bytes() == 1024  # parked in LLC via DDIO

    def test_host_to_device(self, system):
        pm = system.machine.alloc_pm("p", 1024)
        hbm = system.machine.alloc_hbm("h", 1024)
        pm.view(np.uint8)[:] = 8
        system.dma.host_to_device(pm, 0, hbm, 0, 1024)
        assert (hbm.view(np.uint8) == 8).all()

    def test_pageable_adds_bounce_copy(self, system):
        hbm = system.machine.alloc_hbm("h", 1 << 20)
        dram = system.machine.alloc_dram("d", 1 << 20)
        t_pinned = system.dma.device_to_host(hbm, 0, dram, 0, 1 << 20, pinned=True)
        t_pageable = system.dma.device_to_host(hbm, 0, dram, 0, 1 << 20, pinned=False)
        assert t_pageable > t_pinned

    def test_direction_validation(self, system):
        hbm = system.machine.alloc_hbm("h", 64)
        dram = system.machine.alloc_dram("d", 64)
        with pytest.raises(ValueError):
            system.dma.device_to_host(dram, 0, dram, 0, 64)
        with pytest.raises(ValueError):
            system.dma.host_to_device(hbm, 0, hbm, 0, 64)


class TestCapEngine:
    def _setup(self, system, nbytes=1 << 16):
        hbm = system.machine.alloc_hbm("out", nbytes)
        hbm.view(np.uint8)[:] = 42
        f = system.fs.create("/pm/out", nbytes)
        return hbm, f

    def test_cap_fs_durable(self, system):
        hbm, f = self._setup(system)
        t = CapEngine(system, CapMode.FS).persist_output(hbm, 0, f, 0, 1 << 16)
        assert t > 0
        assert (f.region.persisted_view(np.uint8) == 42).all()

    def test_cap_mm_durable_and_faster_than_fs(self, system):
        hbm, f = self._setup(system)
        t_fs = CapEngine(system, CapMode.FS).persist_output(hbm, 0, f, 0, 1 << 16)
        t_mm = CapEngine(system, CapMode.MM).persist_output(hbm, 0, f.region, 0, 1 << 16)
        assert t_mm < t_fs
        assert f.region.unpersisted_bytes() == 0

    def test_cap_eadr_requires_eadr_platform(self, system):
        with pytest.raises(ValueError):
            CapEngine(system, CapMode.EADR)

    def test_cap_eadr_faster_than_mm(self):
        s1, s2 = System(), System(persistency="eadr")
        h1, f1 = self._setup(s1)
        h2, f2 = self._setup(s2)
        t_mm = CapEngine(s1, CapMode.MM).persist_output(h1, 0, f1.region, 0, 1 << 16)
        t_eadr = CapEngine(s2, CapMode.EADR).persist_output(h2, 0, f2.region, 0, 1 << 16)
        assert t_eadr < t_mm
        assert f2.region.unpersisted_bytes() == 0

    def test_zero_bytes_free(self, system):
        hbm, f = self._setup(system)
        assert CapEngine(system, CapMode.FS).persist_output(hbm, 0, f, 0, 0) == 0.0

    def test_source_must_be_hbm(self, system):
        dram = system.machine.alloc_dram("d", 64)
        f = system.fs.create("/pm/x", 64)
        with pytest.raises(ValueError):
            CapEngine(system, CapMode.FS).persist_output(dram, 0, f, 0, 64)

    def test_bounce_buffer_grows(self, system):
        hbm = system.machine.alloc_hbm("out", 1 << 20)
        f = system.fs.create("/pm/out", 1 << 20)
        eng = CapEngine(system, CapMode.MM)
        eng.persist_output(hbm, 0, f.region, 0, 1 << 10)
        eng.persist_output(hbm, 0, f.region, 0, 1 << 20)  # must regrow

    @pytest.mark.parametrize("mode", [CapMode.FS, CapMode.MM])
    def test_bounce_buffer_holds_source_bytes(self, system, mode):
        # The simulated DMA really moves the bytes into the pinned bounce
        # buffer before the host-side persist reads them back out.
        nbytes = 1 << 16
        hbm = system.machine.alloc_hbm("out", nbytes)
        hbm.view(np.uint8)[:] = np.arange(nbytes) % 251
        f = system.fs.create("/pm/out", nbytes)
        dst = f if mode is CapMode.FS else f.region
        CapEngine(system, mode).persist_output(hbm, 0, dst, 0, nbytes)
        (bounce,) = [r for r in system.machine.regions
                     if r.name.startswith("cap-bounce-")]
        assert np.array_equal(bounce.read_bytes(0, nbytes), hbm.read_bytes(0, nbytes))
        assert np.array_equal(f.region.persisted_view(np.uint8), hbm.view(np.uint8))

    @pytest.mark.parametrize("sizes", [[8192], [4096, 8192]],
                             ids=["one-array", "two-arrays"])
    def test_checkpoint_staging_block_holds_payload(self, system, sizes):
        # CAP checkpoints stage every payload array into one HBM block with
        # stream_copy; the block ends up holding their concatenation.
        driver = ModeDriver(system, Mode.CAP_MM)
        payload = []
        for i, size in enumerate(sizes):
            hbm = system.machine.alloc_hbm(f"pl{i}", size)
            arr = DeviceArray(hbm, np.float32, 0, size // 4)
            arr.np[:] = np.arange(size // 4, dtype=np.float32) + 1000 * i
            payload.append(arr)
        target = CheckpointTarget(driver, "cp", payload, paper_bytes=sum(sizes))
        target.checkpoint()
        staging = system.machine.region("hbm:/pm/cp.cp")
        expected = np.concatenate([p.np.view(np.uint8) for p in payload])
        assert np.array_equal(staging.read_bytes(0, expected.size), expected)


class TestGpufs:
    def test_supported_coarse_small_file(self, system):
        hbm = system.machine.alloc_hbm("h", 1 << 16)
        hbm.view(np.uint8)[:] = 1
        f = system.fs.create("/pm/f", 1 << 16)
        t = GpuFs(system).gwrite_bulk(hbm, 0, f, 0, 1 << 16,
                                      paper_file_bytes=1 << 20)
        assert t > 0
        assert f.region.unpersisted_bytes() == 0

    def test_fine_grained_rejected(self, system):
        with pytest.raises(GpufsUnsupported) as e:
            GpuFs(system).check_supported(1 << 20, fine_grained=True)
        assert e.value.reason == GpufsUnsupported.FINE_GRAIN

    def test_large_file_rejected(self, system):
        with pytest.raises(GpufsUnsupported) as e:
            GpuFs(system).check_supported(4_000_000_000, fine_grained=False)
        assert e.value.reason == GpufsUnsupported.FILE_TOO_LARGE

    def test_rpc_cost_scales_with_pages(self, system):
        hbm = system.machine.alloc_hbm("h", 4 * GPUFS_PAGE_BYTES)
        f = system.fs.create("/pm/f", 4 * GPUFS_PAGE_BYTES)
        g = GpuFs(system)
        t1 = g.gwrite_bulk(hbm, 0, f, 0, GPUFS_PAGE_BYTES, paper_file_bytes=1)
        t4 = g.gwrite_bulk(hbm, 0, f, 0, 4 * GPUFS_PAGE_BYTES, paper_file_bytes=1)
        assert t4 > 2.5 * t1
