"""The GPU driver's DMA engine (cudaMemcpy paths).

Section 3: ``cudaMemcpy`` between device memory and a memory-mapped file
"internally uses a pinned memory on DRAM as a bounce buffer"; CAP pays for
(1) initiating the DMA, (2) the PCIe transfer, and (3) for pageable/mapped
destinations, the extra bounce-buffer copy.

Functionally, DMA writes arriving at host memory pass through DDIO like any
I/O write: into the (volatile) LLC when the destination is PM - which is why
CAP still needs the CPU to flush afterwards.
"""

from __future__ import annotations

from ..sim.bulk import BulkTransfer
from ..sim.events import DramWrite, HbmWrite
from ..sim.machine import Machine
from ..sim.memory import MemKind, Region


class DmaEngine:
    """cudaMemcpy-style bulk transfers between HBM and host memory."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.config = machine.config

    def device_to_host(self, src: Region, src_off: int, dst: Region, dst_off: int,
                       nbytes: int, pinned: bool = True) -> float:
        """DMA ``nbytes`` from GPU memory to host memory.

        ``pinned=False`` models a pageable/mapped destination: the transfer
        stages through a pinned DRAM bounce buffer, adding a host-side copy.
        Returns elapsed seconds (also advances the clock).
        """
        if src.kind is not MemKind.HBM:
            raise ValueError("device_to_host source must be HBM")
        if dst.kind is MemKind.HBM:
            raise ValueError("device_to_host destination must be host memory")
        BulkTransfer(dst, dst_off, src, src_off, nbytes).apply()
        elapsed = self.machine.pcie.dma_time(nbytes, to_gpu=False)
        if dst.kind is MemKind.PM:
            # I/O writes to PM land in the LLC via DDIO: visible, volatile.
            self.machine.llc.install_writes(dst, [dst_off], [nbytes])
        else:
            self.machine.events.emit(DramWrite(nbytes=nbytes, source="dma"))
        if not pinned:
            elapsed += nbytes / self.config.cpu_memcpy_bw_single
        self.machine.clock.advance(elapsed)
        return elapsed

    def host_to_device(self, src: Region, src_off: int, dst: Region, dst_off: int,
                       nbytes: int, pinned: bool = True) -> float:
        """DMA ``nbytes`` from host memory into GPU memory."""
        if dst.kind is not MemKind.HBM:
            raise ValueError("host_to_device destination must be HBM")
        if src.kind is MemKind.HBM:
            raise ValueError("host_to_device source must be host memory")
        BulkTransfer(dst, dst_off, src, src_off, nbytes).apply()
        elapsed = self.machine.pcie.dma_time(nbytes, to_gpu=True)
        self.machine.events.emit(HbmWrite(nbytes=nbytes))
        if src.kind is MemKind.PM:
            elapsed += self.machine.optane.read(nbytes)
        if not pinned:
            elapsed += nbytes / self.config.cpu_memcpy_bw_single
        self.machine.clock.advance(elapsed)
        return elapsed
