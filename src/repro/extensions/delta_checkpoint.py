"""Incremental checkpointing: persist only what changed.

libGPM's ``gpmcp`` streams the whole registered payload every checkpoint
(Section 5.3).  For workloads that mutate a small, shifting fraction of
their state between checkpoints, most of that stream is redundant - the
observation behind CheckFreq [63] and the incremental-checkpoint
literature the paper cites ([20, 23, 46]).

:class:`DeltaCheckpoint` divides the payload into chunks and keeps **two
PM slots per chunk**, each tagged with the epoch that wrote it.  A
checkpoint at epoch *e*:

1. hashes the device payload per chunk and selects the dirty ones;
2. for each dirty chunk, streams the data into the slot holding the
   *older* tag, persists it, then persists the slot's tag ``= e``;
3. finally persists the master epoch ``= e`` - the commit point.

Restore at master epoch *E* picks, per chunk, the slot with the newest tag
``<= E``; a crash mid-checkpoint therefore reads as epoch *E-1* exactly,
chunk by chunk - per-chunk double buffering gives the same atomicity
``gpmcp`` gets from whole-group double buffering, at delta cost.

:func:`delta_vs_full` measures both against a payload whose update
fraction varies.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..core.errors import CheckpointError
from ..core.mapping import GpmRegion, gpm_map
from ..core.persist import gpm_persist_begin, gpm_persist_end
from ..experiments.results import ExperimentTable
from ..gpu.memory import DeviceArray
from ..sim.events import KernelLaunch, SystemFence
from ..sim.optane import merge_segment_lists
from ..system import System

_MAGIC = 0x44435031  # "DCP1"
_HEADER_BYTES = 128
#: header words: magic, chunk_bytes, n_chunks, master_epoch


class DeltaCheckpoint:
    """A chunked, per-chunk double-buffered incremental checkpoint."""

    def __init__(self, system, path: str) -> None:
        self.system = system
        self.gpm: GpmRegion = gpm_map(system, path)
        header = self.gpm.view(np.uint32, 0, 4)
        if int(header[0]) != _MAGIC:
            raise CheckpointError(f"{path!r} is not a DeltaCheckpoint")
        self.chunk_bytes = int(header[1])
        self.n_chunks = int(header[2])
        self._tags_off = _HEADER_BYTES
        self._data_off = _HEADER_BYTES + self.n_chunks * 2 * 4
        self._data_off += (-self._data_off) % 128
        #: last-seen chunk digests, for dirty detection (volatile; a crash
        #: just means the next checkpoint re-hashes everything).
        self._digests: list[bytes | None] = [None] * self.n_chunks

    @classmethod
    def create(cls, system, path: str, payload_bytes: int,
               chunk_bytes: int = 4096) -> "DeltaCheckpoint":
        if payload_bytes <= 0 or chunk_bytes <= 0:
            raise CheckpointError("payload and chunk sizes must be positive")
        n_chunks = -(-payload_bytes // chunk_bytes)
        tags = n_chunks * 2 * 4
        data_off = _HEADER_BYTES + tags
        data_off += (-data_off) % 128
        size = data_off + 2 * n_chunks * chunk_bytes
        region = gpm_map(system, path, size, create=True)
        header = region.view(np.uint32, 0, 4)
        header[0] = _MAGIC
        header[1] = chunk_bytes
        header[2] = n_chunks
        header[3] = 0  # master epoch: nothing committed yet
        region.region.persist_range(0, data_off)
        return cls(system, path)

    # -- layout ------------------------------------------------------------

    def _slot_off(self, chunk: int, slot: int) -> int:
        return self._data_off + (chunk * 2 + slot) * self.chunk_bytes

    @property
    def master_epoch(self) -> int:
        return int(self.gpm.view(np.uint32, 12, 1)[0])

    # -- checkpoint ------------------------------------------------------------

    def checkpoint(self, payload: DeviceArray) -> tuple[float, int]:
        """Persist the payload's dirty chunks; returns (seconds, n_dirty)."""
        if payload.nbytes > self.n_chunks * self.chunk_bytes:
            raise CheckpointError("payload exceeds checkpoint capacity")
        system = self.system
        start = system.machine.clock.now
        epoch = self.master_epoch + 1
        raw = payload.np.view(np.uint8)
        gpm_persist_begin(system)
        try:
            # pass 1: dirty detection + slot selection
            tags = self.gpm.view(np.uint32, self._tags_off, self.n_chunks * 2)
            plan = []  # (payload lo, payload hi, dst offset, tag offset)
            for chunk in range(self.n_chunks):
                lo = chunk * self.chunk_bytes
                if lo >= raw.size:
                    break
                hi = min(lo + self.chunk_bytes, raw.size)
                # blake2b reads the slice through the buffer protocol; no
                # intermediate bytes object.
                digest = hashlib.blake2b(raw[lo:hi], digest_size=16).digest()
                if digest == self._digests[chunk]:
                    continue
                self._digests[chunk] = digest
                slot = 0 if tags[chunk * 2] <= tags[chunk * 2 + 1] else 1
                plan.append((lo, hi, self._slot_off(chunk, slot),
                             self._tags_off + (chunk * 2 + slot) * 4))
            dirty = len(plan)
            if dirty:
                # pass 2: ONE copy kernel streams every dirty chunk
                region = self.gpm.region
                for lo, hi, dst, _ in plan:
                    region.write_from(dst, raw[lo:hi])
                starts, lengths = merge_segment_lists([p[2] for p in plan],
                                                      [p[1] - p[0] for p in plan])
                pcie_t = system.machine.pcie.stream_write_time(sum(lengths))
                media_t = system.machine.io_write_arrival(region, starts, lengths)
                system.machine.events.emit(KernelLaunch(kind="delta_copy"))
                system.machine.events.emit(SystemFence())
                system.machine.clock.advance(
                    system.config.gpu_kernel_launch_s
                    + max(pcie_t, media_t)
                    + system.config.pcie_rtt_s
                )
                # pass 3: ONE kernel persists the chunk tags
                system.gpu.scatter_store_bulk(
                    region, np.array([p[3] for p in plan], dtype=np.int64),
                    np.full(dirty, epoch, dtype=np.uint32), item_bytes=4,
                )
            # commit
            system.gpu.store_and_persist_value(self.gpm.region, 12, epoch,
                                               np.uint32)
        finally:
            gpm_persist_end(system)
        return system.machine.clock.now - start, dirty

    # -- restore ------------------------------------------------------------------

    def restore(self, payload: DeviceArray) -> float:
        """Reassemble the last committed epoch into ``payload``."""
        system = self.system
        start = system.machine.clock.now
        committed = self.master_epoch
        if committed == 0:
            raise CheckpointError("nothing has been checkpointed yet")
        raw_size = payload.nbytes
        tag_view = self.gpm.view(np.uint32, self._tags_off, self.n_chunks * 2)
        for chunk in range(self.n_chunks):
            lo = chunk * self.chunk_bytes
            if lo >= raw_size:
                break
            hi = min(lo + self.chunk_bytes, raw_size)
            tags = [int(tag_view[chunk * 2 + s]) for s in (0, 1)]
            valid = [t for t in tags if 0 < t <= committed]
            if not valid:
                continue  # chunk never written: stays as-is
            slot = tags.index(max(valid))
            system.gpu.stream_copy(
                payload.region, payload.offset + lo,
                self.gpm.region, self._slot_off(chunk, slot), hi - lo,
                persist=False,
            )
        # restoring invalidates the dirty cache (payload may now differ)
        self._digests = [None] * self.n_chunks
        return system.machine.clock.now - start


def delta_vs_full(payload_kb: int = 1024, chunk_bytes: int = 4096,
                  checkpoints: int = 4) -> ExperimentTable:
    """Delta vs full checkpoint cost as the dirty fraction varies."""
    from ..core.checkpoint import gpmcp_create, gpmcp_register

    table = ExperimentTable(
        "delta_checkpoint",
        "Extension: incremental vs full checkpointing (1 MB payload)",
        ["dirty_fraction", "full_ms", "delta_ms", "delta_speedup"],
    )
    nbytes = payload_kb * 1024
    rng = np.random.default_rng(5)
    for fraction in (0.01, 0.1, 0.5, 1.0):
        # full gpmcp
        system = System()
        hbm = system.machine.alloc_hbm("w", nbytes)
        payload = DeviceArray(hbm, np.float32, 0, nbytes // 4)
        cp = gpmcp_create(system, "/pm/full", nbytes, 1, 1)
        gpmcp_register(cp, payload)
        full = 0.0
        for _ in range(checkpoints):
            _mutate(payload, fraction, chunk_bytes, rng)
            full += cp.checkpoint(0)
        # delta
        system = System()
        hbm = system.machine.alloc_hbm("w", nbytes)
        payload = DeviceArray(hbm, np.float32, 0, nbytes // 4)
        dcp = DeltaCheckpoint.create(system, "/pm/delta", nbytes, chunk_bytes)
        dcp.checkpoint(payload)  # epoch 1: everything
        delta = 0.0
        for _ in range(checkpoints):
            _mutate(payload, fraction, chunk_bytes, rng)
            t, _ = dcp.checkpoint(payload)
            delta += t
        table.add(fraction, full * 1e3, delta * 1e3, full / delta)
    table.notes.append("per-chunk double buffering keeps the gpmcp "
                       "atomicity guarantee at delta cost; hashing is "
                       "host-side and uncharged (a real system would track "
                       "dirtiness via write bitmaps)")
    return table


def _mutate(payload: DeviceArray, fraction: float, chunk_bytes: int,
            rng: np.random.Generator) -> None:
    n_chunks = -(-payload.nbytes // chunk_bytes)
    n_dirty = max(1, int(n_chunks * fraction))
    chosen = rng.choice(n_chunks, size=n_dirty, replace=False)
    words = payload.np
    per_chunk = chunk_bytes // 4
    for c in chosen.tolist():
        lo = c * per_chunk
        hi = min(lo + per_chunk, words.size)
        words[lo:hi] = rng.random(hi - lo).astype(np.float32)
