"""Timing model of Intel Optane DCPMM.

The paper (Section 6.1, citing [27, 95, 99]) identifies the idiosyncrasies of
Optane that dominate GPM's bandwidth picture:

* the media is written in **256-byte XPLines**; the DIMM write-combines
  incoming stores into an internal buffer at that granularity;
* sequential accesses aligned at 256 B reach **12.5 GB/s**;
* sequential but unaligned (e.g. 64 B flush-grain) accesses drop to
  **3.13 GB/s** - every drain of a partial line costs a full-line
  read-modify-write, a 4x byte amplification;
* random accesses drop to **0.72 GB/s** - partial-line RMW *plus* the loss
  of the device's internal locality, modelled as a further multiplicative
  penalty on random line touches.

The model is epoch-based: an **epoch** is the set of writes drained together
(between two persist barriers).  Writes to the same XPLine combine freely
within an epoch but a line touched in two different epochs pays twice - this
is what makes flush-per-64B streams 4x slower than 256 B-aligned streaming,
exactly as measured.

:class:`OptaneModel` both computes media time and applies the functional
persistence (copying bytes from a region's ``visible`` to ``persisted``
image) so callers cannot account time without also persisting data.
"""

from __future__ import annotations

import numpy as np

from .config import SystemConfig
from .events import EventBus, OptaneEpoch, PmRead
from .memory import Region


def merge_segments_grouped(
    starts: np.ndarray, lengths: np.ndarray, group_ids: np.ndarray, stride: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge segments independently within each group, in one numpy pass.

    Equivalent to calling :func:`merge_segment_lists` on each group's slice,
    but without the per-group Python round trips: shifting every address by
    ``group * stride`` keeps the single global sort/accumulate from ever
    merging runs across group boundaries.  ``stride`` must exceed every
    segment end offset.  Returns ``(run_starts, run_lengths, run_groups)``
    ordered group-major, then by address within each group.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    group_ids = np.asarray(group_ids, dtype=np.int64)
    if starts.size == 0:
        return starts, lengths, group_ids
    shifted = starts + group_ids * stride
    # ndarray methods, not the np.* wrappers: this runs once per warp drain.
    if (shifted[1:] >= shifted[:-1]).all():
        # Already in order (coalesced warp drains queue that way): the
        # stable sort would be the identity, so skip it and its gathers.
        ends = shifted + lengths
        groups = group_ids
    else:
        order = shifted.argsort(kind="stable")
        shifted = shifted[order]
        ends = shifted + lengths[order]
        groups = group_ids[order]
    run_end = np.maximum.accumulate(ends)
    new_run = np.empty(shifted.size, dtype=bool)
    new_run[0] = True
    np.greater(shifted[1:], run_end[:-1], out=new_run[1:])
    run_first = new_run.nonzero()[0]
    # Runs are disjoint and address-sorted, so the running maximum at each
    # run's last member is that run's own end (earlier runs end below this
    # run's start; later groups live beyond the stride).
    run_last = np.empty(run_first.size, dtype=np.int64)
    run_last[:-1] = run_first[1:] - 1
    run_last[-1] = shifted.size - 1
    run_groups = groups[run_first]
    run_starts = shifted[run_first] - run_groups * stride
    run_lengths = run_end[run_last] - shifted[run_first]
    return run_starts, run_lengths, run_groups


def merge_segment_lists(starts: list[int], lengths: list[int]) -> tuple[list[int], list[int]]:
    """:func:`merge_segments_grouped` for one group given as Python ints.

    A sort-and-sweep: a segment that starts at or before the running end
    joins the current run, so adjacent and overlapping segments merge and
    a zero-length segment past every earlier end survives as a zero-length
    run.  Returns ``(run_starts, run_lengths)`` sorted by address.
    """
    if not starts:
        return [], []
    segments = sorted(zip(starts, lengths))
    run_starts: list[int] = []
    run_lengths: list[int] = []
    start, length = segments[0]
    end = start + length
    for s, n in segments:
        if s > end:
            run_starts.append(start)
            run_lengths.append(end - start)
            start, end = s, s + n
        elif s + n > end:
            end = s + n
    run_starts.append(start)
    run_lengths.append(end - start)
    return run_starts, run_lengths


class OptaneModel:
    """Pattern-aware write/read timing for one Optane persistence domain."""

    def __init__(self, config: SystemConfig, events: EventBus) -> None:
        self._config = config
        self._events = events
        self._line = config.pm_xpline_bytes
        self._line_time = self._line / config.pm_bw_seq_aligned
        #: (region token, XPLine index) of the last write, for cross-epoch
        #: sequentiality; line indices are only comparable within a region.
        #: The token is :attr:`Region.token` - monotonic and never reused -
        #: rather than ``id()``, whose values CPython recycles after a free,
        #: which would let a cold stream to a new region masquerade as a
        #: sequential continuation of a dead one.
        self._last_line: int | None = None
        self._last_region: int | None = None

    def reset_stream(self) -> None:
        """Forget sequentiality history (e.g. after a crash/restart)."""
        self._last_line = None
        self._last_region = None

    # ------------------------------------------------------------------

    def write_epoch(self, region: Region, starts: list[int], lengths: list[int]) -> float:
        """Drain one epoch of writes to PM; returns media seconds.

        ``starts``/``lengths`` are byte segments within ``region`` given as
        Python ints, in any order, possibly overlapping.  They are merged,
        then persisted functionally (visible -> persisted) and charged by
        :meth:`write_epochs` as one group, which skips non-positive runs.
        """
        region.check_segments(starts, lengths)
        starts, lengths = merge_segment_lists(starts, lengths)
        return self.write_epochs(region, starts, lengths, (0, len(starts)))[0]

    def write_epochs(self, region: Region, starts: list[int], lengths: list[int],
                     bounds, arrival_event=None, before_group=None,
                     grain: str = "epoch") -> list[float]:
        """Drain consecutive epochs, one per group of runs; the only code
        that persists runs and emits :class:`OptaneEpoch`.

        Group ``g`` holds runs ``bounds[g]:bounds[g + 1]`` of
        ``starts``/``lengths``, Python ints within ``region``; each group is
        usually pre-merged (disjoint and address-sorted, e.g. from
        :func:`merge_segment_lists` or :func:`merge_segments_grouped`).
        Every run costs one full XPLine per line it touches, and its first
        touch additionally pays the random-access penalty unless it is the
        line written just before it, or the next one: the previous run's
        last line, across groups too, or the stream's last line.  Runs of
        zero length are skipped, so a group without a positive run drains
        nothing: no epoch, no change to the stream, zero seconds.

        Per group, in order: ``before_group(group)`` when given (how a
        caller puts its own per-group event, or state change, ahead of the
        epoch), then the group's persistence, its :class:`OptaneEpoch`, and
        ``arrival_event(nbytes=logical_bytes)`` when given - also for a
        group that drained nothing - so a crash observer armed on the event
        stream sees exactly the per-epoch persistence frontier.  Returns the
        per-group media seconds.
        """
        line = self._line
        line_time = self._line_time
        penalty = self._config.pm_random_penalty - 1.0
        name = region.name
        token = region.token
        emit = self._events.emit
        few = Region.PERSIST_SLICE_THRESHOLD
        persisted, visible = region.persisted, region.visible
        prev = self._last_line if self._last_region == token else -(10**9)
        times = []
        for g, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if before_group is not None:
                before_group(g)
            # A group of few runs persists slice by slice as it is counted.
            slices = hi - lo <= few
            touches = random_starts = logical = segments = 0
            for i in range(lo, hi):
                length = lengths[i]
                if length > 0:
                    start = starts[i]
                    first = start // line
                    last = (start + length - 1) // line
                    touches += last - first + 1
                    if first != prev and first != prev + 1:
                        random_starts += 1
                    prev = last
                    logical += length
                    segments += 1
                    if slices:
                        persisted[start:start + length] = visible[start:start + length]
            if segments:
                if slices:
                    region.persist_gen += 1
                else:
                    region.persist_ranges(starts[lo:hi], lengths[lo:hi])
                time = (touches + random_starts * penalty) * line_time
                self._last_line = prev
                self._last_region = token
                emit(OptaneEpoch(name, logical, touches * line, segments,
                                 random_starts, time, grain))
            else:
                time = 0.0
            times.append(time)
            if arrival_event is not None:
                emit(arrival_event(nbytes=logical))
        return times

    def write_flush_grain(self, region: Region, offset: int, size: int,
                          grain: int = 64, random: bool = False) -> float:
        """Drain ``[offset, offset+size)`` as back-to-back ``grain``-byte epochs.

        Models a CPU CLFLUSHOPT+drain loop (or any flush-grain stream): every
        ``grain``-sized drain is its own epoch, so each one pays a full
        XPLine touch - the 4x partial-line amplification behind the paper's
        3.13 GB/s unaligned number.  With ``random=True`` every epoch also
        pays the random-access penalty (0.72 GB/s).  An analytic model of
        calling :meth:`write_epoch` once per grain: one event, no run list.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        if size == 0:
            return 0.0
        if grain <= 0:
            raise ValueError("grain must be positive")
        region.persist_range(offset, size)
        touches = (size + grain - 1) // grain
        per_touch = self._line_time
        if random:
            per_touch *= self._config.pm_random_penalty
        self._last_line = (offset + size - 1) // self._line
        self._last_region = region.token
        time = touches * per_touch
        self._events.emit(OptaneEpoch(
            region=region.name, logical_bytes=size,
            media_bytes=touches * self._line, segments=touches,
            random_starts=touches if random else 0, media_time=time,
            grain="flush_grain",
        ))
        return time

    def flush_lines(self, region: Region, line_starts: list[int], line_size: int) -> float:
        """Drain a set of dirty cache lines as one ``line_drain`` epoch.

        Used by the LLC's range flushes.  Each line of ``line_starts``
        (Python ints) is its own run of :meth:`write_epochs`, unmerged, so
        the epoch charges one full XPLine touch per line, however many
        lines share an XPLine.  Sequentiality is judged between consecutive
        lines in sorted address order; isolated lines pay the random
        penalty.  Returns media seconds.
        """
        starts = sorted(line_starts)
        size = region.size
        lengths = [min(line_size, size - start) for start in starts]
        return self.write_epochs(region, starts, lengths, (0, len(starts)),
                                 grain="line_drain")[0]

    def read(self, nbytes: int, random: bool = False) -> float:
        """Media seconds to read ``nbytes`` from PM."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self._events.emit(PmRead(nbytes=nbytes, random=random))
        bw = self._config.pm_bw_seq_aligned
        if random:
            bw /= self._config.pm_random_penalty
        return self._config.pm_read_latency_s + nbytes / bw
