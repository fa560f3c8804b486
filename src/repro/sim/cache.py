"""The CPU last-level cache, Data Direct I/O, and the volatility boundary.

Section 3.1 of the paper: *"When DDIO is enabled (default), GPU's writes to
system memory are cached in CPU's LLCs. They do not immediately proceed to
the memory controllers. Thus, GPM selectively turns off DDIO for GPUs when
persistence is desired."*

This module models exactly that boundary.  The LLC is a capacity-bounded LRU
store of **dirty cache lines** sitting in front of persistent memory:

* Inbound I/O writes (GPU stores arriving over PCIe) land here when DDIO is
  on - the data is *visible* but **not persistent**.
* CPU stores to PM-mapped memory also dirty lines here.
* A line becomes persistent when it is explicitly flushed (CLFLUSHOPT /
  GPM's DDIO-off fence path) or naturally evicted (the dotted arrows of
  Fig. 2).
* On a crash the dirty lines are **discarded** - unless the machine models
  eADR (Section 3.3), in which case the enhanced ADR domain includes the
  LLC and all dirty lines drain to PM on failure.

Only lines backed by PM regions are tracked: dirty DRAM lines need no
write-back bookkeeping because DRAM is lost on crash anyway.

The dirty set is array-backed (see ``docs/performance.md``, "LLC write-back
path").  Each PM region gets a contiguous block of global line ids on its
first install; ``_stamp[gid]`` holds that line's LRU stamp, 0 when clean.
``_log`` appends the line id of every touch: a dirty line's stamp is one
plus the log position of its latest touch, so entry ``i`` is live exactly
when ``_stamp[_log[i]] == i + 1``.  Entries of lines touched again,
flushed, dropped or evicted since go stale and are skipped lazily; the live
entries, in log order, are the LRU order (oldest first).  Range flushes and
drops are one slice of the stamp array, and a single-segment install is one
slice assignment.
"""

from __future__ import annotations

import numpy as np

from .config import SystemConfig
from .events import EventBus, LlcEvict, LlcFlush, LlcInstall
from .memory import MemKind, Region
from .optane import OptaneModel

#: Smallest log allocation, in entries.
_MIN_LOG = 1024
#: Installs of at most this many lines update the arrays element by element.
_LOOP_LINES = 8


class LastLevelCache:
    """Dirty-line tracking for the DDIO/LLC persistence gap."""

    def __init__(self, config: SystemConfig, events: EventBus, optane: OptaneModel) -> None:
        self._config = config
        self._events = events
        self._optane = optane
        self._line = config.cpu_cache_line_bytes
        self._capacity_lines = config.llc_ddio_bytes // self._line
        # region.token -> (first gid, line count, block index).  Tokens are
        # monotonic and never reused, unlike id(): a freed region's stale
        # dirty lines can never alias a later allocation.
        self._blocks: dict[int, tuple[int, int, int]] = {}
        self._owners: list[Region | None] = []  # block index -> region
        self._bases: list[int] = []  # block index -> first gid, ascending
        self._bases_arr: np.ndarray | None = None  # cached for drains
        self._spare: dict[int, list[int]] = {}  # line count -> released blocks
        self._top = 0  # gids handed out so far
        self._stamp = np.zeros(0, dtype=np.int64)
        self._log = np.empty(_MIN_LOG, dtype=np.int64)
        self._head = 0  # every log entry before this one is stale
        self._tail = 0  # next free log position
        self._count = 0  # dirty lines

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def dirty_lines(self, region: Region) -> list[int]:
        """Line numbers of ``region`` currently dirty in the LLC (sorted)."""
        block = self._blocks.get(region.token)
        if block is None:
            return []
        base, n_lines, _ = block
        return self._stamp[base:base + n_lines].nonzero()[0].tolist()

    def install_writes(self, region: Region, starts: list[int], lengths: list[int]) -> None:
        """Record stores to PM-backed lines arriving at the LLC.

        ``starts``/``lengths`` are byte segments given as Python ints.  The
        bytes are already visible (stores update ``region.visible``
        directly); this only tracks *which lines are dirty*, i.e. visible
        but not yet persistent.  Capacity overflow triggers natural LRU
        eviction, which persists the evicted lines.  Non-PM regions are
        ignored.
        """
        if region.kind is not MemKind.PM:
            return
        # Streaming fast path: traffic far exceeding the DDIO window writes
        # through continuously (lines evict as fast as they fill).  Persist
        # the head of the stream directly and cache only the tail.
        if sum(lengths) > 2 * self._capacity_lines * self._line:
            tail_bytes = self._capacity_lines * self._line
            starts, lengths = self._persist_all_but_tail(region, starts, lengths, tail_bytes)
        base, n_lines, _ = self._blocks.get(region.token) or self._new_block(region)
        line = self._line
        if len(starts) == 1:
            if lengths[0] <= 0:
                return
            first = starts[0] // line
            last = (starts[0] + lengths[0] - 1) // line
            order = range(first, last + 1)
            touched = len(order)
        else:
            seq: list[int] = []
            for start, length in zip(starts, lengths):
                if length > 0:
                    seq.extend(range(start // line, (start + length - 1) // line + 1))
            if not seq:
                return
            last = max(seq)
            touched = len(seq)
            # Distinct lines in last-touch order: a line written twice in
            # one call moves to the end, as each touch refreshes its LRU slot.
            order = list(dict.fromkeys(reversed(seq)))
            order.reverse()
        if last >= n_lines:
            raise IndexError(f"LLC install past the end of region {region.name!r}")
        n = len(order)
        if self._tail + n > self._log.size:
            self._compact(n)
        t = self._tail
        stamp, log = self._stamp, self._log
        if n <= _LOOP_LINES:
            # A few lines: element access beats numpy's per-call overhead.
            fills = 0
            for pos, gid in enumerate(order, t):
                gid += base
                if not stamp[gid]:
                    fills += 1
                log[pos] = gid
                stamp[gid] = pos + 1
        elif type(order) is range:
            stamps = stamp[base + first:base + last + 1]
            fills = n - int(np.count_nonzero(stamps))
            stamps[:] = np.arange(t + 1, t + n + 1)
            log[t:t + n] = np.arange(base + first, base + last + 1)
        else:
            gids = np.array(order, dtype=np.int64)
            gids += base
            fills = n - int(np.count_nonzero(stamp[gids]))
            stamp[gids] = np.arange(t + 1, t + n + 1)
            log[t:t + n] = gids
        self._tail = t + n
        self._count += fills
        self._events.emit(LlcInstall(region=region.name, hits=touched - fills, fills=fills))
        if self._count > self._capacity_lines:
            self._evict_over_capacity()

    def _persist_all_but_tail(self, region, starts, lengths, tail_bytes):
        """Write the stream's head straight through; return the tail segments."""
        # Highest start first, walking a stable ascending sort backwards.
        order = sorted(range(len(starts)), key=starts.__getitem__)
        remaining = tail_bytes
        keep_starts: list[int] = []
        keep_lengths: list[int] = []
        head_starts: list[int] = []
        head_lengths: list[int] = []
        for i in reversed(order):
            start, length = starts[i], lengths[i]
            if remaining >= length:
                keep_starts.append(start)
                keep_lengths.append(length)
                remaining -= length
            elif remaining > 0:
                keep_starts.append(start + length - remaining)
                keep_lengths.append(remaining)
                head_starts.append(start)
                head_lengths.append(length - remaining)
                remaining = 0
            else:
                head_starts.append(start)
                head_lengths.append(length)
        if head_starts:
            self._optane.write_epoch(region, head_starts, head_lengths)
            # A write-through segment spans every cache line it touches, not
            # one line per segment.
            lines = sum(
                (start + length - 1) // self._line - start // self._line + 1
                for start, length in zip(head_starts, head_lengths)
            )
            self._events.emit(LlcEvict(lines=lines))
        return keep_starts, keep_lengths

    def _evict_over_capacity(self) -> None:
        excess = self._count - self._capacity_lines
        gids, end = self._oldest(excess)
        self._drain(gids, pop=True)
        self._head = end
        self._events.emit(LlcEvict(lines=excess))

    def _drain(self, gids: np.ndarray, pop: bool) -> None:
        """Write ``gids`` (LRU order) back to PM, one Optane epoch per line.

        Each same-region run is one :meth:`OptaneModel.write_epochs` call
        with one single-line group per line.  With ``pop`` its
        ``before_group`` hook clears each line just before it persists, so a
        crash at a line's epoch finds that line and every earlier one
        persisted and the later ones still dirty (eADR drains them).

        Natural evictions are asynchronous background traffic; they persist
        data functionally but are not charged to any foreground timeline.
        """
        stamp = self._stamp
        for region, run, starts, sizes in self._runs(gids):
            clear = None
            if pop:
                def clear(g, run=run):
                    stamp[run[g]] = 0
                    self._count -= 1
            self._optane.write_epochs(region, starts, sizes, range(len(run) + 1),
                                      before_group=clear)

    def _runs(self, gids: np.ndarray):
        """Split ``gids`` into same-region runs, keeping their order.

        Yields ``(region, run, starts, sizes)`` as lists of Python ints: the
        run's gids and each line's byte offset and size within the region
        (a region's last line may be short).
        """
        if self._bases_arr is None:
            self._bases_arr = np.asarray(self._bases, dtype=np.int64)
        blocks = self._bases_arr.searchsorted(gids, side="right") - 1
        cuts = (blocks[1:] != blocks[:-1]).nonzero()[0] + 1
        bounds = [0, *cuts.tolist(), gids.size]
        for lo, hi in zip(bounds, bounds[1:]):
            block = int(blocks[lo])
            region = self._owners[block]
            starts = (gids[lo:hi] - self._bases[block]) * self._line
            sizes = np.minimum(self._line, region.size - starts)
            yield region, gids[lo:hi].tolist(), starts.tolist(), sizes.tolist()

    # -- the arrays behind the dirty set ---------------------------------

    def _new_block(self, region: Region) -> tuple[int, int, int]:
        """Assign ``region`` its (first gid, line count, block index)."""
        n_lines = -(-region.size // self._line)
        spare = self._spare.get(n_lines)
        if spare:
            index = spare.pop()
            base = self._bases[index]
            self._owners[index] = region
        else:
            index, base = len(self._bases), self._top
            self._top += n_lines
            if self._top > self._stamp.size:
                grown = np.zeros(max(2 * self._stamp.size, self._top), dtype=np.int64)
                grown[:self._stamp.size] = self._stamp
                self._stamp = grown
            self._bases.append(base)
            self._owners.append(region)
            self._bases_arr = None
        block = self._blocks[region.token] = (base, n_lines, index)
        return block

    def _release(self, region: Region) -> None:
        """Return a wholly clean region's block for reuse by a same-sized one.

        Stale log entries into the block stay stale: a later touch gets a
        later log position, hence a different stamp.
        """
        _, n_lines, index = self._blocks.pop(region.token)
        self._owners[index] = None
        self._spare.setdefault(n_lines, []).append(index)

    def _live(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Log positions (relative to ``lo``) and gids of live entries in ``[lo, hi)``."""
        gids = self._log[lo:hi]
        live = (self._stamp[gids] == np.arange(lo + 1, hi + 1)).nonzero()[0]
        return live, gids[live]

    def _compact(self, n: int) -> None:
        """Make room for ``n`` log appends: keep only the live entries."""
        _, live = self._live(self._head, self._tail)
        kept = live.size
        if 2 * (kept + n) > self._log.size:
            self._log = np.empty(max(2 * (kept + n), _MIN_LOG), dtype=np.int64)
        self._log[:kept] = live
        # Renumber to the new positions; the relative order is unchanged.
        self._stamp[live] = np.arange(1, kept + 1)
        self._head, self._tail = 0, kept

    def _oldest(self, k: int) -> tuple[np.ndarray, int]:
        """The ``k`` least recently touched dirty lines' gids, oldest first.

        Also returns the log position just past the last of them.
        """
        pieces = []
        pos, chunk = self._head, max(2 * k, 64)
        while k > 0 and pos < self._tail:
            hi = min(pos + chunk, self._tail)
            live, gids = self._live(pos, hi)
            if live.size >= k:
                pieces.append(gids[:k])
                pos += int(live[k - 1]) + 1
                break
            pieces.append(gids)
            k -= live.size
            pos = hi
            chunk *= 2
        gids = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        return gids, pos

    # ------------------------------------------------------------------

    def flush_range(self, region: Region, offset: int, size: int) -> float:
        """Flush the dirty lines covering ``[offset, offset+size)`` to PM.

        Models a CLFLUSHOPT loop followed by a drain: the range's dirty
        lines are written back as one ``line_drain`` epoch that charges
        every line a full XPLine touch (this is what makes flush-grain
        access patterns pay Optane's partial-line penalty).  Returns the
        media seconds consumed.
        """
        stamps, first = self._range(region, offset, size)
        if stamps is None:
            return 0.0
        hits = stamps.nonzero()[0]
        if not hits.size:
            return 0.0
        # Announce before touching the dirty set: a crash during this
        # emission must see the lines either still cached (eADR drains
        # them) or already persisted - never in between.  Real hardware
        # has no such limbo (a CLFLUSHOPT'd line is in the cache or in the
        # ADR-protected controller queue); found by the litmus fuzzer.
        self._events.emit(LlcFlush(region=region.name, lines=hits.size))
        stamps[hits] = 0
        self._count -= hits.size
        hits += first
        hits *= self._line
        return self._optane.flush_lines(region, hits.tolist(), self._line)

    def drop_range(self, region: Region, offset: int, size: int) -> None:
        """Forget dirty lines in a range that were persisted by other means.

        Used when a bulk flush already drained the range's visible bytes to
        PM (e.g. :meth:`OptaneModel.write_flush_grain`), and when a region
        is freed; a per-line write-back would double-charge the media.
        """
        stamps, _ = self._range(region, offset, size)
        if stamps is None:
            return
        self._count -= int(np.count_nonzero(stamps))
        stamps[:] = 0
        if offset <= 0 and offset + size >= region.size:
            self._release(region)

    def _range(self, region: Region, offset: int, size: int):
        """The stamp slice of ``region``'s lines covering ``[offset, offset+size)``.

        Returns ``(stamps, first line)``, or ``(None, 0)`` when no line of
        the range can be dirty.
        """
        if region.kind is not MemKind.PM or size <= 0:
            return None, 0
        block = self._blocks.get(region.token)
        if block is None:
            return None, 0
        base, n_lines, _ = block
        first = offset // self._line
        last = min((offset + size - 1) // self._line, n_lines - 1)
        return self._stamp[base + first:base + last + 1], first

    def flush_region(self, region: Region) -> float:
        """Flush every dirty line of ``region``; returns media seconds."""
        return self.flush_range(region, 0, region.size)

    # ------------------------------------------------------------------

    def crash(self, eadr: bool) -> None:
        """Apply crash semantics to the cached dirty lines.

        Without eADR all dirty lines are lost.  With eADR the enhanced ADR
        domain covers the LLC, so every dirty line drains to PM (Section
        3.3: the feature "will drain the entire contents of CPU caches to
        PM on power failures").
        """
        if eadr and self._count:
            self._drain(self._crash_lines(), pop=False)
        self._stamp.fill(0)
        self._head = self._tail = self._count = 0

    def _crash_lines(self, region: Region | None = None) -> np.ndarray:
        """The lines an eADR crash writes back, oldest first.

        Every dirty line, or only ``region``'s when one is given.
        """
        gids = self._oldest(self._count)[0]
        if region is not None:
            base, n_lines, _ = self._blocks[region.token]
            gids = gids[(gids >= base) & (gids < base + n_lines)]
        return gids

    def durable_image(self, region: Region, eadr: bool) -> np.ndarray:
        """A copy of ``region``'s persisted bytes as :meth:`crash` would leave them.

        Under eADR the bytes of the region's dirty lines are overlaid from
        ``visible``, as the crash drain writes them back.  Changes nothing:
        no event, no Optane epoch, no stamp.
        """
        image = region.persisted.copy()
        if eadr and self._count and region.token in self._blocks:
            gids = self._crash_lines(region)
            if gids.size:
                # One region's lines: a single run.
                _, _, starts, sizes = next(self._runs(gids))
                visible = region.visible
                for start, size in zip(starts, sizes):
                    image[start:start + size] = visible[start:start + size]
        return image
