"""Traffic accounting for the simulated machine.

The paper's evaluation leans on two traffic-derived metrics:

* **Write amplification** (Table 4): bytes transferred-and-persisted by CAP
  divided by bytes persisted by GPM for the same logical work.
* **PCIe write bandwidth** (Fig. 12): bytes written by the GPU to PM across
  the PCIe link, divided by elapsed simulated time.

:class:`MachineStats` tallies these by source and destination.  Counters are
cumulative; use :meth:`snapshot` and :meth:`delta_since` to measure a window.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class MachineStats:
    """Cumulative byte/operation counters for one simulated machine."""

    # PCIe link traffic (GPU <-> host)
    pcie_bytes_to_host: int = 0
    pcie_bytes_to_gpu: int = 0
    pcie_transactions: int = 0

    # Persistent-memory media traffic
    pm_bytes_written: int = 0          # logical bytes stored to PM media
    pm_bytes_written_internal: int = 0  # media bytes after XPLine RMW
    pm_bytes_read: int = 0
    pm_bytes_written_by_gpu: int = 0
    pm_bytes_written_by_cpu: int = 0

    # Volatile traffic
    dram_bytes_written: int = 0
    hbm_bytes_written: int = 0
    hbm_bytes_read: int = 0

    # Cache behaviour
    llc_ddio_hits: int = 0
    llc_ddio_fills: int = 0
    llc_evictions: int = 0
    cache_lines_flushed: int = 0

    # Ordering operations
    system_fences: int = 0
    cpu_drains: int = 0

    # Software events
    dma_transfers: int = 0
    syscalls: int = 0
    kernels_launched: int = 0

    def snapshot(self) -> "MachineStats":
        """Return an independent copy of the current counters."""
        return MachineStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def delta_since(self, earlier: "MachineStats") -> "MachineStats":
        """Return counters accumulated since ``earlier`` was snapshotted."""
        return MachineStats(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )


@dataclass
class WindowedStats:
    """A (stats delta, elapsed time) pair for one measured phase."""

    stats: MachineStats
    elapsed: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def pcie_write_bandwidth(self) -> float:
        """GPU-to-host PCIe write bandwidth over the window (Fig. 12)."""
        if self.elapsed <= 0:
            return 0.0
        return self.stats.pcie_bytes_to_host / self.elapsed
