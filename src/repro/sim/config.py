"""Hardware configuration for the simulated GPM platform.

Every latency, bandwidth and structural constant used by the simulator lives
in :class:`SystemConfig`, with a comment citing the paper section (or the
external measurement the paper cites) that motivated it.  The default values
model the paper's testbed (Table 3): a 4-socket Xeon Gold 6242 server with
8x128 GB Optane DCPMM, an NVIDIA Titan RTX, and a PCIe 3.0 x16 link.

Calibration tests in ``tests/sim/test_calibration.py`` pin the emergent
behaviour of these constants against the paper's microbenchmarks (Fig. 3 and
the Optane pattern-bandwidth numbers in Section 6.1), so workload-level
results are built on a substrate calibrated once, not tuned per figure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SystemConfig:
    """All tunable constants of the simulated machine.

    Instances are immutable; use :meth:`with_overrides` to derive variants
    (e.g. an eADR machine for the Fig. 10 projections).
    """

    # ------------------------------------------------------------------
    # Optane persistent memory (Section 2, Section 6.1, refs [27, 41, 99])
    # ------------------------------------------------------------------
    #: Bytes of the internal XPLine write-combining buffer granule.  Optane
    #: "internally buffers writes at 256 bytes to hide latency" (Section 6.1).
    #: Every XPLine a write touches costs a full line of media time, which
    #: models the read-modify-write behind "if the accesses are not
    #: 256-bytes-aligned then it drops to 3.13 GBps" (Section 6.1): a 64 B
    #: store pays for 256 B, 12.5 / 4 = 3.125 GB/s.
    pm_xpline_bytes: int = 256
    #: Load latency of the PM media; "access times are only 3-10x of DRAM"
    #: (Section 2).
    pm_read_latency_s: float = 300e-9
    #: Peak media write bandwidth for sequential, 256 B-aligned accesses:
    #: "one can achieve 12.5 GBps bandwidth with sequential accesses aligned
    #: at 256 bytes" (Section 6.1).
    pm_bw_seq_aligned: float = 12.5e9
    #: "if accesses are to random addresses then bandwidth drops to 0.72
    #: GBps" (Section 6.1).  Random XPLine sequences additionally defeat the
    #: device's internal prefetch/row buffering.
    pm_random_penalty: float = 4.34

    # ------------------------------------------------------------------
    # CPU and LLC (Table 3: 4x Xeon Gold 6242; Sections 3, 6.1)
    # ------------------------------------------------------------------
    cpu_cache_line_bytes: int = 64
    #: LLC capacity available to DDIO-steered device writes.  DDIO uses a
    #: subset of LLC ways; 2 MB is ample for our scaled workloads and keeps
    #: natural evictions (the dotted lines of Fig. 2) observable.
    llc_ddio_bytes: int = 2 * 1024 * 1024
    #: Effective single-thread CPU persist bandwidth (store + CLFLUSHOPT +
    #: SFENCE loop).  Anchors Fig. 3: all scaling numbers in the paper are
    #: relative to one CAP-mm CPU thread.
    cpu_persist_bw_single: float = 1.6e9
    #: Amdahl serial fraction of multi-threaded CPU persistence.  Fig. 3(a):
    #: CAP-mm plateaus at 1.47x over a single thread, i.e. a serial fraction
    #: of 1/1.47 ~= 0.68... parallel fraction 0.32 reproduces the measured
    #: curve (2 threads -> 1.20x, 4 -> 1.34x, 64 -> 1.46x).
    cpu_persist_serial_fraction: float = 0.68
    #: Plain (volatile) memcpy bandwidth of one CPU thread.
    cpu_memcpy_bw_single: float = 6.0e9
    #: Non-temporal store bandwidth of one CPU thread (bypasses caches).
    cpu_nt_store_bw_single: float = 2.2e9
    #: Maximum CPU threads CAP may use (Section 6.1: "CAP-mm uses 2-32 CPU
    #: threads ... we choose the number that provides the best performance").
    cpu_max_threads: int = 64

    # ------------------------------------------------------------------
    # PCIe 3.0 x16 (Table 3; Section 6.1: "achievable total PCIe 3.0
    # bandwidth (~13 GBps)")
    # ------------------------------------------------------------------
    pcie_bw: float = 13.0e9
    #: Round-trip latency of a single posted-write + completion over PCIe,
    #: the cost a GPU thread pays to *persist* (write then system-scope
    #: fence) one datum.  [66] reports ~1-2 us for GPU->host persists.
    pcie_rtt_s: float = 1.3e-6
    #: PCIe transaction payload granularity; matches the GPU coalescing
    #: width ("PCIe is better utilized when a warp accesses data at a
    #: 128-byte, aligned granularity" - Section 5.2, ref [1]).
    pcie_tx_bytes: int = 128
    #: Maximum transactions a warp keeps in flight within one persist round
    #: (write-combining/MSHR depth towards the PCIe endpoint).
    pcie_outstanding_per_warp: int = 5
    #: Total outstanding transactions the GPU's PCIe endpoint sustains;
    #: "it typically supports a limited number of concurrent operations on
    #: the PCIe [1]. Thus, it does not scale beyond a point" (Section 3.2).
    pcie_max_outstanding: int = 64

    # ------------------------------------------------------------------
    # GPU (Table 3: Titan RTX, 72 SMs, 24 GB GDDR6)
    # ------------------------------------------------------------------
    gpu_warp_size: int = 32
    gpu_hbm_bw: float = 550e9
    #: Simulated cost of one abstract arithmetic operation per thread, after
    #: dividing by the machine's parallelism (SMs x warp lanes).
    gpu_op_latency_s: float = 1.0e-9
    gpu_max_resident_warps: int = 72 * 32
    #: Concurrent arithmetic lanes across the whole GPU (SMs x FP32 units);
    #: divides per-thread op counts into compute time.
    gpu_parallel_lanes: int = 4608
    gpu_kernel_launch_s: float = 5e-6

    # ------------------------------------------------------------------
    # Host software costs (Section 3, Section 6.1)
    # ------------------------------------------------------------------
    #: Fixed cost of initiating one cudaMemcpy/DMA ("initializing the DMA
    #: engine and transferring rows ... adds overheads", Section 6.1).
    dma_init_s: float = 12e-6
    #: Syscall entry/exit cost (write/fsync/msync under CAP-fs).
    syscall_s: float = 2.0e-6
    #: ext4-DAX software amplification on the fsync persist bandwidth
    #: (journalling, extent bookkeeping).  Together with fsync's
    #: single-threaded flushing this makes CAP-mm ~2x CAP-fs for gpKVS
    #: (Fig. 9).
    fs_bw_derate: float = 1.5
    #: Per-call cost of a GPUfs-style system call issued from a threadblock
    #: (GPU->CPU RPC, Section 6.1: "overheads of repeatedly invoking system
    #: calls from the GPU").
    gpufs_call_s: float = 100e-6
    #: GPUfs supports files only up to 2 GB (Section 6.1).
    gpufs_max_file_bytes: int = 2 * 1024 * 1024 * 1024

    def with_overrides(self, **kwargs) -> "SystemConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **kwargs)

    @property
    def cpu_persist_parallel_fraction(self) -> float:
        return 1.0 - self.cpu_persist_serial_fraction

    def cpu_persist_speedup(self, threads: int) -> float:
        """Amdahl-law speedup of multi-threaded CPU persistence (Fig. 3a)."""
        if threads < 1:
            raise ValueError("threads must be >= 1")
        p = self.cpu_persist_parallel_fraction
        return 1.0 / ((1.0 - p) + p / threads)


DEFAULT_CONFIG = SystemConfig()
