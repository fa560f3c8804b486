"""Hierarchical Coalesced Logging (HCL) - Section 5.2, Figs. 4 and 5.

HCL is the cornerstone of libGPM: a write-ahead undo log that scales to
hundreds of thousands of GPU threads with **no locks** and **coalesced**
PCIe/PM traffic.  Two ideas from the paper:

1. *Mimic the execution hierarchy*: the log file is partitioned grid ->
   threadblock -> warp, and within a warp each thread owns a fixed lane, so
   every thread computes a unique insertion offset from its
   (block, warp, lane) identity - no serialisation whatsoever.

2. *Exploit the hardware coalescer*: log entries are **striped** across
   128-byte, cache-line-aligned units in 4-byte chunks, one chunk per lane
   (Fig. 5).  When the 32 lockstep threads of a warp each insert chunk *c*
   of their entry, the 32 stores land in one 128 B line and coalesce into a
   single PCIe transaction and a single Optane drain - the simulator's warp
   drain batches reproduce this merging, so HCL's speedup *emerges* rather
   than being hard-coded.

Failure atomicity: a thread persists its entry's chunks first, then
increments and persists its **tail index**; the tail is the recovery-time
sentinel, so a torn entry (crash between the two persists) is simply never
observed.

Log layout within the PM file::

    [header 64 B][tails: u32 x total_threads][data, 128 B aligned]
    data: per-warp areas of chunks_per_thread stripes;
          stripe j of warp w holds chunk j of all 32 lanes.
"""

from __future__ import annotations

import numpy as np

from ..gpu.kernel import ThreadContext
from .errors import GpmError, LogEmpty, LogFull
from .mapping import GpmRegion, gpm_map

HCL_MAGIC = 0x48434C31  # "HCL1"
_HEADER_BYTES = 64
_CHUNK = 4
_STRIPE = 128  # bytes: one chunk per lane x 32 lanes
_WARP = 32


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


def entry_chunks(data) -> np.ndarray:
    """Convert an entry (bytes / ndarray / scalar) to 4-byte chunks."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        raw = np.frombuffer(bytes(data), dtype=np.uint8)
    else:
        raw = np.frombuffer(np.asarray(data).tobytes(), dtype=np.uint8)
    if raw.size == 0:
        raise GpmError("cannot log an empty entry")
    padded = _align(raw.size, _CHUNK)
    if padded != raw.size:
        raw = np.concatenate([raw, np.zeros(padded - raw.size, dtype=np.uint8)])
    return raw.view(np.uint32)


def chunks_needed(entry_bytes: int) -> int:
    return _align(entry_bytes, _CHUNK) // _CHUNK


class HclLog:
    """A hierarchical coalesced log bound to one kernel geometry.

    Created by :func:`repro.core.logging.gpmlog_create_hcl`; the geometry
    (``blocks``, ``threads_per_block``) must match the kernels that insert
    (the paper: "the number of logging threads and their offset into HCL's
    log is known before the kernel starts execution").
    """

    kind = "hcl"

    def __init__(self, gpm_region: GpmRegion) -> None:
        self.gpm = gpm_region
        header = gpm_region.view(np.uint32, 0, _HEADER_BYTES // 4)
        if int(header[0]) != HCL_MAGIC:
            raise GpmError(f"{gpm_region.path!r} is not an HCL log")
        self.blocks = int(header[1])
        self.threads_per_block = int(header[2])
        self.chunks_per_thread = int(header[3])
        self.tails_offset = int(header[4])
        self.data_offset = int(header[5])
        #: Fig. 5 striping on (the default) or the contiguous-layout ablation.
        self.striped = bool(header[6])
        self.warps_per_block = (self.threads_per_block + _WARP - 1) // _WARP
        self.total_threads = self.blocks * self.threads_per_block
        self._tails = gpm_region.array(np.uint32, self.tails_offset, self.total_threads)

    # -- creation ----------------------------------------------------------

    @staticmethod
    def format(gpm_region: GpmRegion, blocks: int, threads_per_block: int,
               striped: bool = True) -> "HclLog":
        """Initialise an HCL header/geometry in a fresh mapping.

        ``striped=False`` lays each thread's chunks out *contiguously* in
        its private area instead of striping them across 128 B units - the
        ablation of Fig. 5's design choice.  The layout is equally lock-free
        but a warp's lockstep chunk-``c`` stores then scatter over 32
        different cache lines instead of coalescing into one.
        """
        if blocks <= 0 or threads_per_block <= 0:
            raise GpmError("log geometry must be positive")
        total_threads = blocks * threads_per_block
        warps = blocks * ((threads_per_block + _WARP - 1) // _WARP)
        # The tails are themselves written warp-coalesced: align them to the
        # 128 B stripe so a warp's 32 tail updates are one transaction.
        tails_offset = _align(_HEADER_BYTES, _STRIPE)
        data_offset = _align(tails_offset + total_threads * 4, _STRIPE)
        usable = gpm_region.size - data_offset
        chunks_per_thread = usable // (warps * _STRIPE)
        if chunks_per_thread < 1:
            raise GpmError(
                f"log of {gpm_region.size} B too small for {warps} warps "
                f"(needs >= {data_offset + warps * _STRIPE} B)"
            )
        header = gpm_region.view(np.uint32, 0, _HEADER_BYTES // 4)
        header[0] = HCL_MAGIC
        header[1] = blocks
        header[2] = threads_per_block
        header[3] = chunks_per_thread
        header[4] = tails_offset
        header[5] = data_offset
        header[6] = 1 if striped else 0
        # The header and zeroed tails must themselves be durable.
        gpm_region.region.persist_range(0, data_offset)
        return HclLog(gpm_region)

    # -- addressing ---------------------------------------------------------

    def _identity(self, ctx: ThreadContext) -> tuple[int, int, int]:
        tid = ctx.tid
        if tid.block_flat >= self.blocks or tid.block_dim.count > self.threads_per_block:
            raise GpmError(
                f"kernel geometry ({tid.grid_dim.count}x{tid.block_dim.count}) exceeds "
                f"log geometry ({self.blocks}x{self.threads_per_block})"
            )
        warp_flat = tid.block_flat * self.warps_per_block + tid.warp_in_block
        return warp_flat, tid.lane, self._thread_slot(tid)

    def _thread_slot(self, tid) -> int:
        return tid.block_flat * self.threads_per_block + tid.thread_flat

    def chunk_offset(self, warp_flat: int, lane: int, chunk_index: int) -> int:
        """Byte offset of a thread's ``chunk_index``-th 4 B chunk (Fig. 5)."""
        warp_base = self.data_offset + warp_flat * self.chunks_per_thread * _STRIPE
        if self.striped:
            return warp_base + chunk_index * _STRIPE + lane * _CHUNK
        # Ablation layout: each thread's chunks are contiguous in a private
        # span; lockstep stores of chunk c scatter over 32 cache lines.
        return warp_base + lane * self.chunks_per_thread * _CHUNK + chunk_index * _CHUNK

    def _tail_offset(self, slot: int) -> int:
        return self.tails_offset + slot * 4

    # -- device API ----------------------------------------------------------

    def insert(self, ctx: ThreadContext, data) -> None:
        """Insert one entry for the calling thread; persists entry then tail.

        The per-chunk stores at lane-strided offsets coalesce across the
        warp into single-cache-line writes - this is where HCL's performance
        comes from.
        """
        chunks = entry_chunks(data)
        warp_flat, lane, slot = self._identity(ctx)
        region = self.gpm.region
        tail = int(ctx.load(region, self._tail_offset(slot), np.uint32))
        if tail + chunks.size > self.chunks_per_thread:
            raise LogFull(
                f"thread slot {slot}: {tail}+{chunks.size} chunks exceed "
                f"capacity {self.chunks_per_thread}"
            )
        for c in range(chunks.size):
            ctx.store(region, self.chunk_offset(warp_flat, lane, tail + c),
                      chunks[c], np.uint32)
        ctx.persist()
        ctx.store(region, self._tail_offset(slot), tail + chunks.size, np.uint32)
        ctx.persist()

    def insert_warp(self, wctx, chunks: np.ndarray, lanes=None) -> None:
        """Warp-vectorized :meth:`insert`: one equal-sized entry per lane.

        ``chunks`` is a ``(k, n)`` uint32 array - entry chunks for each of
        the ``k`` participating lanes.  The per-chunk-index store batches
        land at the same lane-strided offsets as ``k`` scalar inserts, so
        the warp's stores of chunk ``c`` still merge into one 128 B line,
        and the two persists (entry, then tail) keep the same rounds.  No
        participating lanes, no work: no scalar thread would insert.
        """
        chunks = np.atleast_2d(np.asarray(chunks, dtype=np.uint32))
        sel = wctx.active(lanes)
        k, n = chunks.shape
        if k != sel.size:
            raise GpmError(f"{k} entries for {sel.size} participating lanes")
        if k == 0:
            return
        warp_flat, lane_ids, slots, tail_offs = self._warp_identity(wctx, sel)
        region = self.gpm.region
        tails = wctx.load(region, tail_offs, np.uint32).astype(np.int64)
        if int(tails.max()) + n > self.chunks_per_thread:
            slot = int(slots[int(np.argmax(tails))])
            raise LogFull(
                f"thread slot {slot}: {int(tails.max())}+{n} chunks exceed "
                f"capacity {self.chunks_per_thread}"
            )
        # Every chunk's word index in the warp's data area (row c: chunk c
        # of each lane), written in one pass and metered as one store per
        # chunk index - the batches k scalar inserts leave pending.
        cpt = self.chunks_per_thread
        warp_base = self.data_offset + warp_flat * cpt * _STRIPE
        if self.striped:
            first, step = tails * _WARP + lane_ids, _WARP
        else:
            first, step = lane_ids * cpt + tails, 1
        offs = first + np.arange(0, n * step, step)[:, None]
        region.view(np.uint32, warp_base, cpt * _WARP)[offs] = chunks.T
        offs *= _CHUNK
        offs += warp_base
        for c in range(n):
            wctx.record_store(region, offs[c], _CHUNK, sel)
        wctx.persist(sel)
        wctx.store(region, tail_offs, (tails + n).astype(np.uint32), np.uint32,
                   lanes=sel)
        wctx.persist(sel)

    def _warp_identity(self, wctx, sel):
        """Per-lane (warp_flat, lane, slot, tail byte offset) for a warp."""
        if (wctx.block_id >= self.blocks
                or wctx.block_dim > self.threads_per_block):
            raise GpmError(
                f"kernel geometry exceeds log geometry "
                f"({self.blocks}x{self.threads_per_block})"
            )
        thread_flats = wctx.thread_flats[sel]
        warp_flat = wctx.block_id * self.warps_per_block + wctx.warp_in_block
        lane_ids = thread_flats % _WARP
        slots = wctx.block_id * self.threads_per_block + thread_flats
        tail_offs = self.tails_offset + slots.astype(np.int64) * 4
        return warp_flat, lane_ids, slots, tail_offs

    def read_warp(self, wctx, entry_bytes: int,
                  lanes=None) -> tuple[np.ndarray, np.ndarray]:
        """Warp-vectorized :meth:`read` of each lane's most recent entry.

        Where the scalar read raises :class:`LogEmpty` per thread, the warp
        form *filters*: lanes whose tail holds fewer than the entry's chunks
        are charged their tail load (exactly what the scalar thread pays
        before raising) and dropped.  Returns ``(entries, live)`` - a
        ``(k_live, chunks)`` uint32 array and the surviving lane indices.
        """
        n = chunks_needed(entry_bytes)
        sel = wctx.active(lanes)
        warp_flat, lane_ids, _slots, tail_offs = self._warp_identity(wctx, sel)
        region = self.gpm.region
        tails = wctx.load(region, tail_offs, np.uint32).astype(np.int64)
        ok = tails >= n
        live = sel[ok]
        if live.size == 0:
            return np.empty((0, n), dtype=np.uint32), live
        t_ok = tails[ok]
        lane_ok = lane_ids[ok]
        warp_base = self.data_offset + warp_flat * self.chunks_per_thread * _STRIPE
        chunks = np.empty((live.size, n), dtype=np.uint32)
        for c in range(n):
            if self.striped:
                offs = warp_base + (t_ok - n + c) * _STRIPE + lane_ok * _CHUNK
            else:
                offs = (warp_base + lane_ok * self.chunks_per_thread * _CHUNK
                        + (t_ok - n + c) * _CHUNK)
            chunks[:, c] = wctx.load(region, offs, np.uint32)
        return chunks, live

    def remove_warp(self, wctx, entry_bytes: int, lanes=None) -> None:
        """Warp-vectorized :meth:`remove`: pop each lane's latest entry."""
        n = chunks_needed(entry_bytes)
        sel = wctx.active(lanes)
        if sel.size == 0:
            return
        _warp_flat, _lane_ids, slots, tail_offs = self._warp_identity(wctx, sel)
        region = self.gpm.region
        tails = wctx.load(region, tail_offs, np.uint32).astype(np.int64)
        if (tails < n).any():
            slot = int(slots[int(np.argmin(tails))])
            raise LogEmpty(
                f"thread slot {slot}: tail {int(tails.min())} < entry of {n} chunks"
            )
        wctx.store(region, tail_offs, (tails - n).astype(np.uint32), np.uint32,
                   lanes=sel)
        wctx.persist(sel)

    def read(self, ctx: ThreadContext, entry_bytes: int) -> np.ndarray:
        """Read the calling thread's most recent entry (as uint8)."""
        n = chunks_needed(entry_bytes)
        warp_flat, lane, slot = self._identity(ctx)
        region = self.gpm.region
        tail = int(ctx.load(region, self._tail_offset(slot), np.uint32))
        if tail < n:
            raise LogEmpty(f"thread slot {slot}: tail {tail} < entry of {n} chunks")
        chunks = np.empty(n, dtype=np.uint32)
        for c in range(n):
            chunks[c] = ctx.load(region, self.chunk_offset(warp_flat, lane, tail - n + c),
                                 np.uint32)
        return chunks.view(np.uint8)[:entry_bytes].copy()

    def remove(self, ctx: ThreadContext, entry_bytes: int) -> None:
        """Pop the calling thread's most recent entry (persists new tail)."""
        n = chunks_needed(entry_bytes)
        _, _, slot = self._identity(ctx)
        region = self.gpm.region
        tail = int(ctx.load(region, self._tail_offset(slot), np.uint32))
        if tail < n:
            raise LogEmpty(f"thread slot {slot}: tail {tail} < entry of {n} chunks")
        ctx.store(region, self._tail_offset(slot), tail - n, np.uint32)
        ctx.persist()

    def entry_count(self, ctx: ThreadContext, entry_bytes: int) -> int:
        """How many ``entry_bytes``-sized entries this thread has logged."""
        _, _, slot = self._identity(ctx)
        tail = int(ctx.load(self.gpm.region, self._tail_offset(slot), np.uint32))
        return tail // chunks_needed(entry_bytes)

    # -- host API (recovery tooling / verification) ---------------------------

    def host_tails(self, persisted: bool = True) -> np.ndarray:
        """Every thread slot's tail (in chunks), as one uint32 view."""
        return (self.gpm.persisted_view if persisted else self.gpm.view)(
            np.uint32, self.tails_offset, self.total_threads
        )

    def host_tail(self, slot: int, persisted: bool = True) -> int:
        return int(self.host_tails(persisted)[slot])

    def host_read_entry(self, slot: int, entry_bytes: int, index: int = -1,
                        persisted: bool = True) -> np.ndarray:
        """Read a logged entry from the host (default: last; from PM image)."""
        n = chunks_needed(entry_bytes)
        tail = self.host_tail(slot, persisted)
        n_entries = tail // n
        if n_entries == 0:
            raise LogEmpty(f"thread slot {slot} has no {entry_bytes}-byte entries")
        if index < 0:
            index += n_entries
        if not 0 <= index < n_entries:
            raise IndexError(f"entry {index} out of range [0, {n_entries})")
        block = slot // self.threads_per_block
        thread = slot % self.threads_per_block
        warp_flat = block * self.warps_per_block + thread // _WARP
        lane = thread % _WARP
        view = (self.gpm.persisted_view if persisted else self.gpm.view)
        chunks = np.empty(n, dtype=np.uint32)
        for c in range(n):
            off = self.chunk_offset(warp_flat, lane, index * n + c)
            chunks[c] = view(np.uint32, off, 1)[0]
        return chunks.view(np.uint8)[:entry_bytes].copy()

    def clear(self) -> None:
        """Truncate every per-thread log (host-side, durable)."""
        self._tails.np[:] = 0
        elapsed = self.gpm.system.machine.optane.write_flush_grain(
            self.gpm.region, self.tails_offset, self.total_threads * 4, grain=256
        )
        self.gpm.system.machine.clock.advance(elapsed)
