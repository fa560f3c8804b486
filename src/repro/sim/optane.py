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


def merge_segments(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge overlapping/adjacent ``[start, start+length)`` segments.

    Returns ``(starts, lengths)`` of the merged runs, sorted by address.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if starts.size == 0:
        return starts, lengths
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    ends = starts + lengths[order]
    # A new run begins wherever a segment starts beyond the running maximum
    # end of all previous segments.
    run_end = np.maximum.accumulate(ends)
    new_run = np.ones(starts.size, dtype=bool)
    new_run[1:] = starts[1:] > run_end[:-1]
    run_ids = np.cumsum(new_run) - 1
    n_runs = int(run_ids[-1]) + 1
    run_starts = starts[new_run]
    run_ends = np.zeros(n_runs, dtype=np.int64)
    np.maximum.at(run_ends, run_ids, ends)
    return run_starts, run_ends - run_starts


def merge_segments_grouped(
    starts: np.ndarray, lengths: np.ndarray, group_ids: np.ndarray, stride: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge segments independently within each group, in one numpy pass.

    Equivalent to calling :func:`merge_segments` on each group's slice, but
    without the per-group Python round trips: shifting every address by
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

    #: Up to this many segments given as a list, :meth:`write_epoch` runs on
    #: Python ints instead of building arrays (see
    #: ``benchmarks/test_drain_small.py``).
    LIST_EPOCH_SEGMENTS = 32

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

    def _random_starts(self, region: Region, first_lines: np.ndarray,
                       last_lines: np.ndarray) -> np.ndarray:
        """Which runs start off the stream, as a boolean array.

        A run is sequential iff its first XPLine is the same as, or
        immediately follows, the line written just before it: the previous
        run's last line, or the stream's last line for the first run.
        """
        prev_last = np.empty(first_lines.size, dtype=np.int64)
        same_stream = self._last_region == region.token and self._last_line is not None
        prev_last[0] = self._last_line if same_stream else -(10**9)
        prev_last[1:] = last_lines[:-1]
        return (first_lines != prev_last) & (first_lines != prev_last + 1)

    # ------------------------------------------------------------------

    def write_epoch(self, region: Region, starts, lengths) -> float:
        """Drain one epoch of writes to PM; returns media seconds.

        ``starts``/``lengths`` are arrays of byte segments within ``region``.
        The segments are persisted functionally (visible -> persisted) and
        their media cost is computed from the XPLine-touch pattern described
        in the module docstring.  A few segments given as lists of Python
        ints take :meth:`_write_epoch_lists`, the same arithmetic on ints.
        """
        if type(starts) is list and len(starts) <= self.LIST_EPOCH_SEGMENTS:
            return self._write_epoch_lists(region, starts, lengths)
        starts = np.atleast_1d(np.asarray(starts, dtype=np.int64))
        lengths = np.atleast_1d(np.asarray(lengths, dtype=np.int64))
        nonempty = lengths > 0
        if not nonempty.all():
            starts, lengths = starts[nonempty], lengths[nonempty]
        if starts.size == 0:
            return 0.0
        run_starts, run_lengths = merge_segments(starts, lengths)
        region.persist_ranges(run_starts, run_lengths)

        logical_bytes = int(run_lengths.sum())
        first_lines = run_starts // self._line
        last_lines = (run_starts + run_lengths - 1) // self._line
        touches = last_lines - first_lines + 1

        # Every touch costs one full XPLine of media time; the first touch of
        # a non-sequential run additionally pays the random-access penalty.
        random_starts = int(np.count_nonzero(
            self._random_starts(region, first_lines, last_lines)))
        total_touches = int(touches.sum())
        time = (
            total_touches + random_starts * (self._config.pm_random_penalty - 1.0)
        ) * self._line_time

        self._last_line = int(last_lines[-1])
        self._last_region = region.token
        self._events.emit(OptaneEpoch(
            region=region.name, logical_bytes=logical_bytes,
            media_bytes=total_touches * self._line, segments=run_starts.size,
            random_starts=random_starts, media_time=time,
        ))
        return time

    def _write_epoch_lists(self, region: Region, starts: list[int],
                           lengths: list[int]) -> float:
        """:meth:`write_epoch` over a few segments given as Python ints.

        Same merge, persistence, stream chaining and float operation order
        as the array route, so the epoch and its ``media_time`` are
        bit-identical.
        """
        if min(lengths, default=1) <= 0:
            starts = [s for s, n in zip(starts, lengths) if n > 0]
            lengths = [n for n in lengths if n > 0]
        run_starts, run_lengths = merge_segment_lists(starts, lengths)
        if not run_starts:
            return 0.0
        region.persist_slices(run_starts, run_lengths)
        line = self._line
        prev = self._last_line if self._last_region == region.token else -(10**9)
        touches = random_starts = 0
        for start, length in zip(run_starts, run_lengths):
            first = start // line
            last = (start + length - 1) // line
            touches += last - first + 1
            if first != prev and first != prev + 1:
                random_starts += 1
            prev = last
        time = (
            touches + random_starts * (self._config.pm_random_penalty - 1.0)
        ) * self._line_time
        self._last_line = prev
        self._last_region = region.token
        self._events.emit(OptaneEpoch(
            region=region.name, logical_bytes=sum(run_lengths),
            media_bytes=touches * line, segments=len(run_starts),
            random_starts=random_starts, media_time=time,
        ))
        return time

    def write_epochs(self, region: Region, run_starts: np.ndarray,
                     run_lengths: np.ndarray, run_groups: np.ndarray,
                     n_groups: int, arrival_event=None,
                     before_group=None) -> np.ndarray:
        """Drain ``n_groups`` consecutive epochs in one vectorized pass.

        Semantically identical to calling :meth:`write_epoch` once per group
        in ascending group order - same per-epoch :class:`OptaneEpoch`
        events, same cross-epoch sequentiality chaining, same functional
        persistence applied group by group (so a crash observer armed on
        the event stream sees exactly the per-epoch persistence frontier) -
        but the XPLine arithmetic for all groups runs as one numpy pass.

        The inputs are *pre-merged* runs, e.g. from
        :func:`merge_segments_grouped`: within each group they must be
        disjoint, address-sorted, and non-empty, with positive lengths, and
        ``run_groups`` must cover every group in ``[0, n_groups)``.
        ``arrival_event``, when given, is an event class emitted as
        ``arrival_event(nbytes=logical_bytes)`` right after each group's
        epoch - how the machine keeps its per-arrival events interleaved
        exactly as the unbatched path.  ``before_group(group)`` is the hook
        invoked before each group persists, so a caller can emit its own
        per-group event ahead of the epoch's (the launch engine's queued
        warp drains).
        Returns the per-group media seconds.
        """
        run_starts = np.asarray(run_starts, dtype=np.int64)
        run_lengths = np.asarray(run_lengths, dtype=np.int64)
        run_groups = np.asarray(run_groups, dtype=np.int64)
        first_lines = run_starts // self._line
        last_lines = (run_starts + run_lengths - 1) // self._line
        touches = last_lines - first_lines + 1
        # One global chain: group g's first run compares against group
        # g-1's last written line - exactly the stream state sequential
        # write_epoch calls would carry over (all groups share ``region``).
        random_runs = self._random_starts(region, first_lines, last_lines).astype(np.int64)
        touches_g = np.bincount(run_groups, weights=touches,
                                minlength=n_groups).astype(np.int64)
        random_g = np.bincount(run_groups, weights=random_runs,
                               minlength=n_groups).astype(np.int64)
        logical_g = np.bincount(run_groups, weights=run_lengths,
                                minlength=n_groups).astype(np.int64)
        times = (
            touches_g + random_g * (self._config.pm_random_penalty - 1.0)
        ) * self._line_time
        bounds = np.searchsorted(run_groups, np.arange(n_groups + 1)).tolist()
        line = self._line
        name = region.name
        token = region.token
        emit = self._events.emit
        few = Region.PERSIST_SLICE_THRESHOLD
        # Python-scalar copies of the per-run and per-group columns: plain
        # list indexing in the loop below beats boxing numpy scalars
        # thousands of times, and a group of few runs persists straight
        # from the lists.
        starts_l = run_starts.tolist()
        lengths_l = run_lengths.tolist()
        last_l = last_lines.tolist()
        logical_l = logical_g.tolist()
        touches_l = touches_g.tolist()
        random_l = random_g.tolist()
        times_l = times.tolist()
        for g in range(n_groups):
            if before_group is not None:
                before_group(g)
            lo, hi = bounds[g], bounds[g + 1]
            if hi - lo <= few:
                region.persist_slices(starts_l[lo:hi], lengths_l[lo:hi])
            else:
                region.persist_ranges(run_starts[lo:hi], run_lengths[lo:hi])
            self._last_line = last_l[hi - 1]
            self._last_region = token
            emit(OptaneEpoch(
                region=name, logical_bytes=logical_l[g],
                media_bytes=touches_l[g] * line, segments=hi - lo,
                random_starts=random_l[g], media_time=times_l[g],
            ))
            if arrival_event is not None:
                emit(arrival_event(nbytes=logical_l[g]))
        return times

    def line_epochs(self, region: Region, starts: np.ndarray, sizes: np.ndarray):
        """Yield the :class:`OptaneEpoch` of each line of a one-line-per-epoch drain.

        ``starts``/``sizes`` are positive, non-overlapping cache lines of
        ``region`` in drain order.  The cost arithmetic is
        :meth:`write_epochs`' with one run per group, in one numpy pass.
        Taking the k-th epoch moves the stream to line k; the caller must
        persist that line and then emit the epoch before taking the next,
        as the LLC's write-back drain does.
        """
        first_lines = starts // self._line
        last_lines = (starts + sizes - 1) // self._line
        touches = last_lines - first_lines + 1
        random = self._random_starts(region, first_lines, last_lines).astype(np.int64)
        times = (touches + random * (self._config.pm_random_penalty - 1.0)) * self._line_time
        name = region.name
        self._last_region = region.token
        for last, size, media, rnd, time in zip(
                last_lines.tolist(), sizes.tolist(), (touches * self._line).tolist(),
                random.tolist(), times.tolist()):
            self._last_line = last
            yield OptaneEpoch(name, size, media, 1, rnd, time)

    def write_flush_grain(self, region: Region, offset: int, size: int,
                          grain: int = 64, random: bool = False) -> float:
        """Drain ``[offset, offset+size)`` as back-to-back ``grain``-byte epochs.

        Models a CPU CLFLUSHOPT+drain loop (or any flush-grain stream): every
        ``grain``-sized drain is its own epoch, so each one pays a full
        XPLine touch - the 4x partial-line amplification behind the paper's
        3.13 GB/s unaligned number.  With ``random=True`` every epoch also
        pays the random-access penalty (0.72 GB/s).  Vectorised equivalent
        of calling :meth:`write_epoch` once per grain.
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

    def flush_lines(self, region: Region, line_starts, line_size: int) -> float:
        """Drain a set of dirty cache lines as one ``line_drain`` epoch.

        Used by the LLC's range flushes.  The epoch charges one full XPLine
        touch per line, however many lines share an XPLine.  Sequentiality
        is judged between consecutive lines in sorted address order;
        isolated lines pay the random penalty.  Returns media seconds.
        """
        line_starts = np.sort(np.asarray(line_starts, dtype=np.int64))
        if line_starts.size == 0:
            return 0.0
        lengths = np.minimum(line_size, region.size - line_starts)
        region.persist_ranges(line_starts, lengths)
        xlines = line_starts // self._line
        n_random = int(np.count_nonzero(self._random_starts(region, xlines, xlines)))
        touches = line_starts.size
        time = (touches + n_random * (self._config.pm_random_penalty - 1.0)) * self._line_time
        self._last_line = int(xlines[-1])
        self._last_region = region.token
        self._events.emit(OptaneEpoch(
            region=region.name, logical_bytes=int(lengths.sum()),
            media_bytes=touches * self._line, segments=touches,
            random_starts=n_random, media_time=time, grain="line_drain",
        ))
        return time

    def read(self, nbytes: int, random: bool = False) -> float:
        """Media seconds to read ``nbytes`` from PM."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self._events.emit(PmRead(nbytes=nbytes, random=random))
        bw = self._config.pm_bw_seq_aligned
        if random:
            bw /= self._config.pm_random_penalty
        return self._config.pm_read_latency_s + nbytes / bw
