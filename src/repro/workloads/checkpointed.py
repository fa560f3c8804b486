"""Shared machinery for the checkpointing workload class (Section 4.2).

DNN, CFD, Black-Scholes and Hotspot share one shape: a long-running loop of
GPU compute over volatile device data, with the results checkpointed to PM
every *k* iterations for fault tolerance.  What differs per persistence mode
is only the checkpoint path:

* **GPM / GPM-eADR**: libGPM's ``gpmcp`` - the GPU streams registered
  structures straight into the double-buffered PM checkpoint.
* **GPM-NDP**: the GPU streams into PM (DDIO on), but the *CPU* must then
  flush the whole checkpoint out of the LLC - the serialisation Fig. 10
  punishes.
* **CAP-fs / CAP-mm / CAP-eADR**: DMA to the host, CPU persists.
* **GPUfs**: per-threadblock gwrite RPCs (checkpoint-class workloads are the
  only ones GPUfs supports, minus its 2 GB file limit).

:class:`CheckpointTarget` realises those paths; :class:`CheckpointedWorkload`
is the template the four workloads fill in with their compute.
"""

from __future__ import annotations

from ..core.checkpoint import Gpmcp, gpmcp_create
from ..gpu.memory import DeviceArray
from .base import (
    Category,
    CrashConsistent,
    Mode,
    ModeDriver,
    RunResult,
    make_system,
    measure,
)


class CheckpointTarget:
    """Mode-appropriate checkpoint/restore of a set of device arrays."""

    def __init__(self, driver: ModeDriver, name: str, payload: list[DeviceArray],
                 paper_bytes: int, fine_grained: bool = False) -> None:
        self.driver = driver
        self.payload = payload
        self.total_bytes = sum(p.nbytes for p in payload)
        self.paper_bytes = paper_bytes
        self.fine_grained = fine_grained
        system = driver.system
        mode = driver.mode
        self._cp: Gpmcp | None = None
        self._buffer = None
        if mode.in_kernel_persist:
            self._cp = gpmcp_create(system, f"/pm/{name}.cp",
                                    self.total_bytes + 128 * len(payload),
                                    elements=len(payload), groups=1)
            for p in payload:
                self._cp.register(p, group=0)
        else:
            self._buffer = driver.buffer(f"/pm/{name}.cp", self.total_bytes,
                                         fine_grained=fine_grained,
                                         paper_bytes=paper_bytes)

    def checkpoint(self) -> float:
        """Persist all payload arrays; returns elapsed simulated seconds."""
        system = self.driver.system
        mode = self.driver.mode
        if self._cp is not None:
            return self._cp.checkpoint(0)
        if mode is Mode.GPM_NDP:
            # GPU streams directly into the PM mapping (no persistence
            # guarantee), then the CPU flushes it line by line.
            start = system.clock.now
            off = 0
            for p in self.payload:
                system.gpu.stream_copy(self._buffer.kernel_region, off,
                                       p.region, p.offset, p.nbytes, persist=False)
                off += p.nbytes
            system.cpu.persist_range(self._buffer.kernel_region, 0, self.total_bytes)
            return system.clock.now - start
        # CAP / GPUfs: stage the payload into one HBM block, then persist.
        start = system.clock.now
        off = 0
        for p in self.payload:
            system.gpu.stream_copy(self._buffer.hbm, off, p.region, p.offset,
                                   p.nbytes, persist=False)
            off += p.nbytes
        self._buffer.persist_all()
        return system.clock.now - start

    def restore(self) -> float:
        """Load the last durable checkpoint back into the payload arrays."""
        system = self.driver.system
        if self._cp is not None:
            return self._cp.restore(0)
        start = system.clock.now
        src = self._buffer.pm_file.region if self._buffer.pm_file else self._buffer.kernel_region
        off = 0
        for p in self.payload:
            system.gpu.stream_copy(p.region, p.offset, src, off, p.nbytes,
                                   persist=False)
            off += p.nbytes
        return system.clock.now - start


class CheckpointedWorkload(CrashConsistent):
    """Template for the iterative, checkpointing GPMbench workloads.

    Subclasses define :meth:`setup` (allocate device state, return the
    payload arrays) and :meth:`compute_iteration` (one timestep of real
    math plus a charged GPU compute time).
    """

    name: str = "checkpointed"
    category = Category.CHECKPOINT
    fine_grained = False
    paper_data_bytes: int = 0
    iterations: int = 10
    checkpoint_every: int = 2

    # -- subclass hooks -----------------------------------------------------

    def setup(self, system) -> list[DeviceArray]:
        raise NotImplementedError

    def compute_iteration(self, system, iteration: int) -> None:
        raise NotImplementedError

    # -- crash invariants ----------------------------------------------------

    def declare_invariants(self, system) -> list:
        """Structural gpmcp invariants: the double buffer stays readable."""
        path = f"/pm/{self.name.lower()}.cp"

        def selector_valid() -> tuple[bool, str]:
            if not system.fs.exists(path):
                return True, "crash predates the checkpoint file"
            from ..core.checkpoint import gpmcp_open

            cp = gpmcp_open(system, path)
            for group in range(cp.groups):
                sel = cp._selector(group)
                if sel not in (0, 1):
                    return False, f"group {group} selector is {sel}"
            return True, "every group selector names a valid copy"

        return [
            (f"{self.name.lower()}-cp-selector-valid",
             "the checkpoint selector always names one of the two copies",
             selector_valid),
        ]

    # -- driver ----------------------------------------------------------------

    def run(self, mode: Mode, system=None,
            checkpoint_every: int | None = None) -> RunResult:
        system = system or make_system(mode)
        driver = ModeDriver(system, mode)
        payload = self.setup(system)
        target = CheckpointTarget(driver, self.name.lower(), payload,
                                  self.paper_data_bytes, self.fine_grained)
        every = checkpoint_every or self.checkpoint_every
        self._state = (system, driver, target)

        def loop():
            checkpoint_time = 0.0
            compute_time = 0.0
            n_checkpoints = 0
            for i in range(self.iterations):
                t0 = system.clock.now
                self.compute_iteration(system, i)
                compute_time += system.clock.now - t0
                if (i + 1) % every == 0:
                    checkpoint_time += target.checkpoint()
                    n_checkpoints += 1
            return checkpoint_time, compute_time, n_checkpoints

        (cp_time, compute_time, n_cp), window = measure(system, loop)
        return RunResult(
            workload=self.name, mode=mode,
            # Fig. 9 compares the persistence paths; for this class that is
            # the checkpointing time (compute is identical across modes).
            elapsed=cp_time,
            window=window,
            extras={
                "checkpoint_time": cp_time,
                "compute_time": compute_time,
                "total_time": window.elapsed,
                "checkpoints": n_cp,
                "checkpoint_bytes": target.total_bytes,
            },
        )
