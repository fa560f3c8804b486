"""Persistent bulk utilities: gpm_memset and gpm_memcpy.

Convenience wrappers over the GPU's streaming engine for the common
initialise/copy-then-persist patterns (zeroing a fresh log area, cloning a
PM table).  Both run as device-wide coalesced kernels inside their own
persistence window, so the destination range is durable on return.
"""

from __future__ import annotations

from ..sim.events import KernelLaunch, SystemFence
from ..sim.memory import MemKind, Region
from .errors import GpmError
from .mapping import GpmRegion
from .persist import gpm_persist_begin, gpm_persist_end


def _as_region(target) -> Region:
    if isinstance(target, GpmRegion):
        return target.region
    if isinstance(target, Region):
        return target
    raise GpmError(f"cannot address {type(target).__name__} as PM")


def gpm_memset(system, target, offset: int, size: int, value: int = 0) -> float:
    """Durably fill ``[offset, offset+size)`` of a PM mapping with a byte.

    Returns elapsed simulated seconds.
    """
    region = _as_region(target)
    if region.kind is not MemKind.PM:
        raise GpmError("gpm_memset targets persistent memory")
    if not 0 <= value < 256:
        raise GpmError(f"fill value {value} is not a byte")
    start = system.machine.clock.now
    gpm_persist_begin(system)
    try:
        region.fill(offset, size, value)
        # The fill streams from the GPU as coalesced stores + one fence.
        pcie_t = system.machine.pcie.stream_write_time(size)
        media_t = system.machine.io_write_arrival(region, [offset], [size])
        system.machine.events.emit(KernelLaunch(kind="memset"))
        system.machine.events.emit(SystemFence())
        system.machine.clock.advance(
            system.config.gpu_kernel_launch_s
            + max(pcie_t, media_t)
            + system.config.pcie_rtt_s
        )
        if system.eadr:
            system.machine.background_persist(region, offset, size)
    finally:
        gpm_persist_end(system)
    return system.machine.clock.now - start


def gpm_memcpy(system, dst, dst_off: int, src, src_off: int, size: int) -> float:
    """Durably copy between mappings/regions (any combination of PM/HBM src).

    The destination must be PM; the copy streams through the GPU and is
    persisted before return.  Returns elapsed simulated seconds.
    """
    dst_region = _as_region(dst)
    src_region = _as_region(src)
    if dst_region.kind is not MemKind.PM:
        raise GpmError("gpm_memcpy destination must be persistent memory")
    start = system.machine.clock.now
    gpm_persist_begin(system)
    try:
        system.gpu.stream_copy(dst_region, dst_off, src_region, src_off, size,
                               persist=True)
        if system.eadr:
            system.machine.background_persist(dst_region, dst_off, size)
    finally:
        gpm_persist_end(system)
    return system.machine.clock.now - start
