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
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import groupby, islice
from operator import itemgetter

import numpy as np

from .config import SystemConfig
from .events import EventBus, LlcEvict, LlcFlush, LlcInstall
from .memory import MemKind, Region
from .optane import OptaneModel


class LastLevelCache:
    """Dirty-line tracking for the DDIO/LLC persistence gap."""

    def __init__(self, config: SystemConfig, events: EventBus, optane: OptaneModel) -> None:
        self._config = config
        self._events = events
        self._optane = optane
        self._line = config.cpu_cache_line_bytes
        self._capacity_lines = config.llc_ddio_bytes // self._line
        # (region.token, line_no) -> region, in LRU order (oldest first).
        # Tokens are monotonic and never reused, unlike id(): a freed
        # region's stale dirty lines can never alias a later allocation.
        self._dirty: OrderedDict[tuple[int, int], tuple[Region, int]] = OrderedDict()

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._dirty)

    def dirty_lines(self, region: Region) -> list[int]:
        """Line numbers of ``region`` currently dirty in the LLC (sorted)."""
        rid = region.token
        return sorted(line for (r, line), _ in self._dirty.items() if r == rid)

    def install_writes(self, region: Region, starts, lengths) -> None:
        """Record stores to PM-backed lines arriving at the LLC.

        The bytes are already visible (stores update ``region.visible``
        directly); this only tracks *which lines are dirty*, i.e. visible
        but not yet persistent.  Capacity overflow triggers natural LRU
        eviction, which persists the evicted lines.
        """
        if region.kind is not MemKind.PM:
            return
        starts = np.atleast_1d(np.asarray(starts, dtype=np.int64))
        lengths = np.atleast_1d(np.asarray(lengths, dtype=np.int64))
        total = int(lengths.sum())
        # Streaming fast path: traffic far exceeding the DDIO window writes
        # through continuously (lines evict as fast as they fill).  Persist
        # the head of the stream directly and cache only the tail.
        if total > 2 * self._capacity_lines * self._line:
            tail_bytes = self._capacity_lines * self._line
            starts, lengths = self._persist_all_but_tail(region, starts, lengths, tail_bytes)
        rid = region.token
        hits = fills = 0
        for start, length in zip(starts.tolist(), lengths.tolist()):
            if length <= 0:
                continue
            first = start // self._line
            last = (start + length - 1) // self._line
            for line in range(first, last + 1):
                key = (rid, line)
                if key in self._dirty:
                    self._dirty.move_to_end(key)
                    hits += 1
                else:
                    self._dirty[key] = (region, line)
                    fills += 1
        if hits or fills:
            self._events.emit(LlcInstall(region=region.name, hits=hits, fills=fills))
        self._evict_over_capacity()

    def _persist_all_but_tail(self, region, starts, lengths, tail_bytes):
        """Write the stream's head straight through; return the tail segments."""
        order = np.argsort(starts, kind="stable")
        starts, lengths = starts[order], lengths[order]
        remaining = tail_bytes
        keep_starts: list[int] = []
        keep_lengths: list[int] = []
        head_starts: list[int] = []
        head_lengths: list[int] = []
        for start, length in zip(starts[::-1].tolist(), lengths[::-1].tolist()):
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
        return np.asarray(keep_starts, dtype=np.int64), np.asarray(keep_lengths, dtype=np.int64)

    def _evict_over_capacity(self) -> None:
        excess = len(self._dirty) - self._capacity_lines
        if excess > 0:
            self._drain(list(islice(self._dirty.values(), excess)), pop=True)
            self._events.emit(LlcEvict(lines=excess))

    def _drain(self, entries: list[tuple[Region, int]], pop: bool) -> None:
        """Write ``entries`` (LRU order) back to PM, one Optane epoch per line.

        Each same-region run is one vectorized ``write_epochs`` call.  With
        ``pop`` the oldest dirty entry is popped just before its line
        persists, so a crash at a line's epoch finds that line and every
        earlier one persisted and the later ones still dirty (eADR drains
        them).

        Natural evictions are asynchronous background traffic; they persist
        data functionally but are not charged to any foreground timeline.
        """
        before = (lambda _g: self._dirty.popitem(last=False)) if pop else None
        for region, run in groupby(entries, key=itemgetter(0)):
            starts = np.fromiter((line for _, line in run), np.int64) * self._line
            sizes = np.minimum(self._line, region.size - starts)
            n = starts.size
            self._optane.write_epochs(region, starts, sizes, np.arange(n), n,
                                      before_group=before)

    # ------------------------------------------------------------------

    def flush_range(self, region: Region, offset: int, size: int) -> float:
        """Flush the dirty lines covering ``[offset, offset+size)`` to PM.

        Models a CLFLUSHOPT loop followed by a drain: each dirty line in the
        range is written back as its own drain epoch (this is what makes
        flush-grain access patterns pay Optane's partial-line penalty).
        Returns the media seconds consumed.
        """
        if region.kind is not MemKind.PM or size <= 0:
            return 0.0
        rid = region.token
        first = offset // self._line
        last = (offset + size - 1) // self._line
        span_lines = last - first + 1
        # Walk whichever is smaller: the address range or the dirty set.
        if span_lines <= len(self._dirty):
            hits = [
                line
                for line in range(first, last + 1)
                if (rid, line) in self._dirty
            ]
        else:
            hits = [
                line
                for (r, line) in list(self._dirty)
                if r == rid and first <= line <= last
            ]
        if not hits:
            return 0.0
        # Announce before touching the dirty set: a crash during this
        # emission must see the lines either still cached (eADR drains
        # them) or already persisted - never in between.  Real hardware
        # has no such limbo (a CLFLUSHOPT'd line is in the cache or in the
        # ADR-protected controller queue); found by the litmus fuzzer.
        self._events.emit(LlcFlush(region=region.name, lines=len(hits)))
        for line in hits:
            del self._dirty[(rid, line)]
        starts = np.asarray(sorted(hits), dtype=np.int64) * self._line
        return self._optane.flush_lines(region, starts, self._line)

    def drop_range(self, region: Region, offset: int, size: int) -> None:
        """Forget dirty lines in a range that were persisted by other means.

        Used when a bulk flush already drained the range's visible bytes to
        PM (e.g. :meth:`OptaneModel.write_flush_grain`), so a per-line
        write-back would double-charge the media.
        """
        if region.kind is not MemKind.PM or size <= 0:
            return
        rid = region.token
        first = offset // self._line
        last = (offset + size - 1) // self._line
        if last - first + 1 <= len(self._dirty):
            for line in range(first, last + 1):
                self._dirty.pop((rid, line), None)
        else:
            for key in [k for k in self._dirty if k[0] == rid and first <= k[1] <= last]:
                del self._dirty[key]

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
        if eadr:
            self._drain(list(self._dirty.values()), pop=False)
        self._dirty.clear()
