"""The warp-vectorized execution lane of the simulated GPU.

The scalar lane of :meth:`~repro.gpu.device.Gpu.launch` interprets a kernel
one Python thread at a time - faithful, and the reference semantics for
crash injection, but slow: a 16K-thread launch pays ~10 Python calls per
simulated load/store.  This module adds a second lane that executes one
**warp per call**: a :class:`WarpContext` exposes the same primitives as
:class:`~repro.gpu.kernel.ThreadContext` but over numpy arrays of per-lane
offsets and values, with explicit active-lane subsets for divergence.

Equivalence is by construction, not by re-modelling:

* vectorized stores append *array batches* to the same per-warp
  :class:`~repro.gpu.kernel._WarpDrainBuffer` the scalar lane fills, keyed
  by the same per-lane fence rounds, and drain through the same
  ``_BlockEngine`` drain queue - so coalesced segments, PCIe transaction
  counts, Optane epochs and every event-bus emission come out identical
  (the merge sorts, so intra-round store order cannot matter);
* metering increments the same :class:`~repro.gpu.kernel.LaunchAccounting`
  counters by the same amounts (one op per load/store *per lane*, etc.).

Kernels opt in by attaching a warp-level implementation to the scalar
callable with :func:`vectorized_for`; the scalar body remains the reference.
Crash injection keeps the warp lane.  A plain warp reports its retirement
to the injector as one-thread retirements, the counts the scalar lane
reports, with no event between them (drains wait for the warp's flush), so
the frontier recorder's unfenced windows come out the same.  Only the warp
that an armed thread-count crash cuts before its last thread runs thread
at a time, through the scalar body; event-frontier crashes fire on bus
events both lanes emit identically.  The parity suite in
``tests/gpu/test_warp_parity.py`` holds the two lanes bit-identical on every
converted workload, and ``tests/check/test_lane_differential.py`` holds
crash replays and recorded frontier lists identical to their scalar
reference.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..sim import bulk
from ..sim.memory import MemKind, Region
from .kernel import _IMPLICIT_ROUND

#: Module switch: when True, ``Gpu.launch`` ignores registered warp
#: implementations and every kernel runs thread-at-a-time.  Set only
#: through :func:`scalar_lane` (the parity tests' reference runs).
_scalar_only = False

#: Cached ``np.arange`` vectors for gather/scatter index construction.
_SPANS: dict[int, np.ndarray] = {}


def vectorized_for(scalar_kernel):
    """Decorator registering a warp-level implementation of ``scalar_kernel``.

    The warp implementation is called once per warp as ``fn(wctx, *args)``
    with the same extra arguments as the scalar kernel; if it is a generator
    function, each ``yield`` is the block-wide barrier, mirroring the scalar
    convention.  The scalar callable stays the reference semantics - it runs
    when the scalar lane is forced, and for the one warp of a plain kernel
    that a thread-count crash cuts before its last thread.
    """

    def register(warp_fn):
        scalar_kernel.__warp_impl__ = warp_fn
        warp_fn.__scalar_impl__ = scalar_kernel
        return warp_fn

    return register


def resolve_warp_impl(kernel):
    """The warp implementation ``Gpu.launch`` should use, or ``None``."""
    if _scalar_only:
        return None
    return getattr(kernel, "__warp_impl__", None)


@contextmanager
def scalar_lane():
    """Force the thread-at-a-time lane within the block (parity reference)."""
    global _scalar_only
    prev = _scalar_only
    _scalar_only = True
    try:
        yield
    finally:
        _scalar_only = prev


def _span(nbytes: int) -> np.ndarray:
    arange = _SPANS.get(nbytes)
    if arange is None:
        arange = np.arange(nbytes, dtype=np.int64)
        arange.setflags(write=False)  # shared across every caller
        _SPANS[nbytes] = arange
    return arange


#: Cached constant per-lane length vectors (read-only: they are shared
#: across every pending-store batch with the same shape).
_CONST_LENGTHS: dict[tuple[int, int], np.ndarray] = {}


def _const_lengths(k: int, nbytes: int) -> np.ndarray:
    arr = _CONST_LENGTHS.get((k, nbytes))
    if arr is None:
        arr = np.full(k, nbytes, dtype=np.int64)
        arr.setflags(write=False)
        _CONST_LENGTHS[(k, nbytes)] = arr
    return arr


class WarpContext:
    """The device-side view of one warp (all lanes at once).

    Per-lane arguments (``offsets``, ``values``) are numpy arrays with one
    entry per *participating lane*; the ``lanes`` parameter names those
    lanes (indices into the warp, an int array or a boolean mask; default:
    every lane).  Divergent kernels pass the active subset explicitly -
    the simulated accounting charges only participating lanes, exactly as
    the scalar lane charges only threads that execute the operation.  A
    kernel that passes one index array along pays full-warp cost: fences
    over that lane set keep scalar rounds and drain its stores in one pass.
    """

    __slots__ = (
        "shared", "block_flat", "warp_global", "warp_in_block", "n",
        "lanes", "thread_flats", "global_ids", "_block_dim", "_grid_dim",
        "_engine", "_group", "_group_round", "_base", "_rounds", "_pending",
    )

    def __init__(self, grid_count: int, block_count: int, block_flat: int,
                 warp_global: int, warp_in_block: int,
                 thread_flats: np.ndarray, global_ids: np.ndarray,
                 shared, engine) -> None:
        """The ``warp_in_block``-th warp of block ``block_flat`` (the
        ``warp_global``-th of the grid).  The launch passes its grid and
        block sizes as ints, and the lanes' in-block and global thread ids
        as read-only views of one shared ramp."""
        self.shared = shared
        self.block_flat = block_flat
        self.warp_global = warp_global
        self.warp_in_block = warp_in_block
        self.n = count = thread_flats.size
        self.lanes = _span(count)  # shared read-only arange
        self.thread_flats = thread_flats
        self.global_ids = global_ids
        self._block_dim = block_count
        self._grid_dim = grid_count
        self._engine = engine
        #: Fence rounds (the scalar lane's per-thread ``ctx._round``): the
        #: ``_group`` lanes - every lane, until one subset fences alone -
        #: at ``_group_round``, the rest at ``_base``.  A fence over another
        #: lane set builds the per-lane ``_rounds``, used from then on.
        self._group = self.lanes
        self._group_round = 0
        self._base = 0
        self._rounds = None
        #: Vector store batches awaiting a fence:
        #: (region, starts, lengths, lane indices), one entry per store op.
        self._pending: list[tuple[Region, np.ndarray, np.ndarray, np.ndarray]] = []

    # -- identity helpers -------------------------------------------------

    @property
    def block_id(self) -> int:
        return self.block_flat

    @property
    def block_dim(self) -> int:
        return self._block_dim

    @property
    def grid_dim(self) -> int:
        return self._grid_dim

    def _sel(self, lanes) -> np.ndarray:
        if lanes is None:
            return self.lanes
        lanes = np.asarray(lanes)
        if lanes.dtype == np.bool_:
            if lanes.shape != (self.n,):
                raise ValueError(f"lane mask of shape {lanes.shape} for a "
                                 f"warp of {self.n} lanes")
            return np.flatnonzero(lanes)
        return lanes.astype(np.int64, copy=False)

    def active(self, lanes=None) -> np.ndarray:
        """Normalise a lane subset to lane indices: ``None`` (every lane),
        an index array, or a boolean mask with one entry per lane (any
        other mask length raises :class:`ValueError`)."""
        return self._sel(lanes)

    # -- compute ----------------------------------------------------------

    def charge_ops(self, n: int) -> None:
        """Charge ``n`` abstract arithmetic operations (warp-wide total)."""
        self._engine.acct.ops += n

    def charge_serial_time(self, total_seconds: float) -> None:
        acct = self._engine.acct
        if total_seconds > acct.serial_time:
            acct.serial_time = total_seconds

    # -- memory -----------------------------------------------------------

    def _bounds(self, region: Region, offsets: np.ndarray, nbytes: int) -> None:
        if offsets.size == 0:
            return
        lo = int(offsets.min())
        hi = int(offsets.max()) + nbytes
        if lo < 0 or hi > region.size:
            raise IndexError(
                f"warp access [{lo}, {hi}) outside region {region.name!r} "
                f"of size {region.size}"
            )

    def load(self, region: Region, offsets, dtype=np.uint8, count: int = 1,
             lanes=None):
        """Per-lane typed loads: one load of ``count`` elements per lane.

        Returns a ``(k,)`` array (``count == 1``) or ``(k, count)`` array,
        ``k`` being the number of participating lanes.  Accounting matches
        ``k`` scalar :meth:`~repro.gpu.kernel.ThreadContext.load` calls.
        A densely packed run of offsets is read as one slice.
        """
        del lanes  # participation is implied by offsets; kept for symmetry
        offsets = np.asarray(offsets, dtype=np.int64)
        k = offsets.size
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * count
        lo = offsets.item(0) if k else 0
        if (k and offsets.item(-1) - lo == (k - 1) * nbytes
                and (k < 3 or (offsets[1:] - offsets[:-1] == nbytes).all())):
            if lo < 0 or lo + k * nbytes > region.size:
                self._bounds(region, offsets, nbytes)
            data = region.visible[lo:lo + k * nbytes].view(dtype).copy()
        else:
            self._bounds(region, offsets, nbytes)
            idx = (offsets[:, None] + _span(nbytes)).reshape(-1)
            data = region.visible[idx].view(dtype)
        self._meter_loads(region, k, nbytes)
        if count == 1:
            return data
        return data.reshape(k, count)

    def load_uniform(self, region: Region, offset: int, dtype=np.uint8,
                     count: int = 1, lanes=None):
        """All participating lanes load the *same* address (broadcast read).

        Metered as one scalar load per lane; the value is read once.
        Returns a scalar (``count == 1``) or a copied array.
        """
        k = self._sel(lanes).size
        dtype = np.dtype(dtype)
        nbytes = dtype.itemsize * count
        data = region.read_bytes(offset, nbytes).view(dtype)
        self._meter_loads(region, k, nbytes)
        if count == 1:
            return data[0]
        return data.copy()

    def _meter_loads(self, region: Region, k: int, nbytes_each: int) -> None:
        acct = self._engine.acct
        acct.ops += k
        if region.kind is MemKind.HBM:
            acct.hbm_read_bytes += k * nbytes_each
        else:
            acct.host_read_bytes += k * nbytes_each

    def meter_loads(self, region: Region, k: int, nbytes_each: int) -> None:
        """Account for ``k`` per-lane loads whose values were obtained
        through host-side views (the sequential-hazard escape hatch: a warp
        implementation that must see intra-warp program order reads live
        numpy views and meters here, keeping counters identical)."""
        self._meter_loads(region, k, nbytes_each)

    def _ragged_indices(self, offsets: np.ndarray,
                        nbytes: np.ndarray) -> np.ndarray:
        """Flat byte indices for ragged per-lane segments, lane-major.

        Segment ``j`` contributes ``offsets[j] .. offsets[j]+nbytes[j]-1``;
        concatenation order is lane order, which is thread order - so both
        gathers and scatter conflict resolution see the scalar sequence.
        """
        total = int(nbytes.sum())
        # Segment-start shift per byte, then the shared 0..total-1 ramp:
        # idx = repeat(offsets - (ends - nbytes), nbytes) + iota(total).
        before = np.cumsum(nbytes)
        before -= nbytes
        np.subtract(offsets, before, out=before)
        idx = np.repeat(before, nbytes)
        idx += bulk.iota64(total)
        return idx

    def load_gather(self, region: Region, offsets, counts, dtype=np.uint8,
                    lanes=None):
        """Ragged per-lane loads: lane ``j`` loads ``counts[j]`` elements.

        The irregular-kernel gather primitive (BFS neighbour walks, hash
        probes): each participating lane reads a *different-sized* run of
        consecutive elements.  Returns one flat array - the lane-major
        concatenation of all runs, exactly the order scalar threads would
        produce.  Accounting matches ``k`` scalar vector loads; callers
        pass only lanes that actually load (``counts`` all positive), as
        the scalar body skips the load entirely for empty runs.
        """
        del lanes  # participation is implied by offsets; kept for symmetry
        offsets = np.asarray(offsets, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        k = offsets.size
        dtype = np.dtype(dtype)
        nbytes = counts * dtype.itemsize
        if k == 0:
            return np.empty(0, dtype=dtype)
        lo = int(offsets.min())
        hi = int((offsets + nbytes).max())
        if lo < 0 or hi > region.size:
            raise IndexError(
                f"warp gather [{lo}, {hi}) outside region {region.name!r} "
                f"of size {region.size}"
            )
        idx = self._ragged_indices(offsets, nbytes)
        data = region.visible[idx].view(dtype)
        acct = self._engine.acct
        acct.ops += k
        total = int(nbytes.sum())
        if region.kind is MemKind.HBM:
            acct.hbm_read_bytes += total
        else:
            acct.host_read_bytes += total
        return data

    def store(self, region: Region, offsets, values, dtype=np.uint8,
              lanes=None, coalesced: bool = False) -> None:
        """Per-lane typed stores; visible immediately, persistence on fence.

        ``values`` is ``(k,)`` (one element per lane), ``(k, m)`` (a vector
        per lane) or a scalar to broadcast.  Overlapping per-lane offsets
        resolve highest-lane-wins, matching scalar thread order.

        ``coalesced=True`` asserts the offsets form one ascending densely
        packed run (lane ``j`` at ``offsets[0] + j * nbytes``; one lane is
        trivially such a run), skipping the per-element detection scan; the
        end points are still checked.  A densely packed store of one
        element per lane (``values`` an array of ``k`` elements, over any
        lane subset) writes the run as one typed slice.

        A store over no lanes (empty ``offsets``) is a no-op: nothing is
        written, metered or left pending, as no scalar thread stores.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        k = offsets.size
        if k == 0:
            return
        dtype = np.dtype(dtype)
        sel = self.lanes if lanes is None else self._sel(lanes)
        whole = type(values) is np.ndarray and values.shape == (k,)
        if whole:
            # One element per lane: a packed run is one typed slice below.
            nbytes = dtype.itemsize
        else:
            arr = np.asarray(values, dtype=dtype)
            if arr.ndim == 0:
                arr = np.broadcast_to(arr, (k,))
            raw = np.ascontiguousarray(arr).view(np.uint8).reshape(k, -1)
            nbytes = raw.shape[1]
        lo = offsets.item(0)
        packed = offsets.item(-1) - lo == (k - 1) * nbytes
        if coalesced and not packed:
            raise ValueError("store(coalesced=True) offsets are not one "
                             "densely packed ascending run")
        if packed and (coalesced or k < 3 or
                       (offsets[1:] - offsets[:-1] == nbytes).all()):
            # Coalesced warp store (ascending, densely packed): one slice
            # assignment instead of a fancy-indexed scatter, and O(1)
            # bounds from the end points.
            hi = lo + k * nbytes
            if lo < 0 or hi > region.size:
                self._bounds(region, offsets, nbytes)
            if whole:
                region.visible[lo:hi].view(dtype)[:] = values
            else:
                region.visible[lo:hi] = raw.reshape(-1)
        else:
            self._bounds(region, offsets, nbytes)
            if whole:
                raw = np.ascontiguousarray(values, dtype=dtype).view(np.uint8)
            idx = (offsets[:, None] + _span(nbytes)).reshape(-1)
            region.visible[idx] = raw.reshape(-1)
        self.record_store(region, offsets, nbytes, sel)

    def record_store(self, region: Region, offsets: np.ndarray,
                     nbytes_each: int, lanes: np.ndarray) -> None:
        """Meter per-lane stores whose bytes were already placed in the
        visible image (via :meth:`store` or live host-side views).

        ``offsets`` is a non-empty ``int64`` array (it is queued as is);
        ``lanes`` holds the matching lane indices.
        """
        k = offsets.size
        acct = self._engine.acct
        acct.ops += k
        if region.kind is MemKind.HBM:
            acct.hbm_write_bytes += k * nbytes_each
        else:
            self._pending.append(
                (region, offsets, _const_lengths(k, nbytes_each), lanes))

    # -- atomics (sequential per-lane semantics, vector metering) ----------

    def _atomic(self, region: Region, offsets, values, dtype, fn, lanes=None):
        sel = self._sel(lanes)
        offsets = np.asarray(offsets, dtype=np.int64)
        dtype = np.dtype(dtype)
        k = offsets.size
        values = np.broadcast_to(np.asarray(values, dtype=dtype), (k,))
        old = np.empty(k, dtype=dtype)
        visible = region.visible
        nb = dtype.itemsize
        self._bounds(region, offsets, nb)
        # Lane order IS thread order: colliding offsets chain exactly as the
        # scalar lane's sequential read-modify-writes do.
        for j in range(k):
            off = int(offsets[j])
            cur = visible[off:off + nb].view(dtype)[0]
            old[j] = cur
            new = fn(cur, values[j])
            if new is not None:
                visible[off:off + nb] = np.asarray(new, dtype=dtype).reshape(1).view(np.uint8)
        acct = self._engine.acct
        acct.ops += 4 * k
        if region.kind is MemKind.HBM:
            acct.hbm_read_bytes += k * nb
            acct.hbm_write_bytes += k * nb
        elif k:
            acct.host_read_bytes += k * nb
            self._pending.append((region, offsets, _const_lengths(k, nb), sel))
        return old

    def atomic_add(self, region: Region, offsets, values, dtype=np.int64,
                   lanes=None):
        """Per-lane atomic fetch-and-add; returns the previous values."""
        return self._atomic(region, offsets, values, dtype,
                            lambda cur, v: cur + v, lanes)

    def atomic_max(self, region: Region, offsets, values, dtype=np.int64,
                   lanes=None):
        """Per-lane atomic max; returns the previous values."""
        return self._atomic(region, offsets, values, dtype,
                            lambda cur, v: max(cur, v), lanes)

    def atomic_cas(self, region: Region, offsets, expected, desired,
                   dtype=np.int64, lanes=None):
        """Per-lane atomic compare-and-swap; returns the previous values."""
        dtype = np.dtype(dtype)
        k = np.asarray(offsets).size
        expected = np.broadcast_to(np.asarray(expected, dtype=dtype), (k,))
        desired = np.broadcast_to(np.asarray(desired, dtype=dtype), (k,))
        state = {"j": 0}

        def swap(cur, _v):
            j = state["j"]
            state["j"] = j + 1
            if cur == expected[j]:
                return desired[j]
            return None

        return self._atomic(region, offsets, desired, dtype, swap, lanes)

    # -- fences -----------------------------------------------------------

    def persist(self, lanes=None) -> None:
        """System-scope fence for the participating lanes.

        Each participating lane counts one fence and advances its private
        round; pending stores belonging to those lanes move into the warp's
        drain buffer under each lane's (new) round number - precisely the
        scalar lane's per-thread ``fence``, batched.  When only the fencing
        lanes' stores are pending, they drain in one pass.
        """
        if lanes is None:
            sel = self.lanes
            k = self.n
        else:
            sel = self._sel(lanes)
            k = sel.size
            if k == 0:
                return
        eng = self._engine
        eng.acct.fences += k
        eng._fence_count += k
        policy = eng.policy
        if policy == "relaxed":
            # Mirror of the scalar engine's relaxed fence: no ordering, no
            # round; pending stores ride to the implicit round at retire.
            return
        if k == self.n:
            sel = self.lanes
        warp = self.warp_global
        rounds = None
        if policy == "epoch":
            # Mirror of the scalar engine's epoch fence: fences within one
            # epoch share one drain round (the epoch ordinal), and the
            # warp's round count advances once per epoch it fences in.
            if eng._warp_epoch_seen.get(warp) != eng._epoch:
                eng._warp_epoch_seen[warp] = eng._epoch
                eng._warp_rounds[warp] = eng._warp_rounds.get(warp, 0) + 1
            eng._epoch_dirty = True
            group, top = sel, eng._epoch
        else:
            rounds = self._rounds
            group = self._group
            if rounds is None and sel is not group and not (
                    sel.size == group.size and (sel == group).all()):
                if group is self.lanes:
                    # A convergent warp's first subset fence: the subset
                    # becomes the group, every other lane stays behind.
                    self._base = self._group_round
                    self._group = group = sel
                else:
                    rounds = self._rounds = np.full(self.n, self._base,
                                                    dtype=np.int64)
                    rounds[group] = self._group_round
            if rounds is None:
                self._group_round = top = self._group_round + 1
            else:
                rounds[sel] += 1
                top = int(rounds[sel].max())
            if top > eng._warp_rounds.get(warp, 0):
                eng._warp_rounds[warp] = top
        if not self._pending:
            return
        if rounds is not None:
            self._drain_lanes(sel, rounds)
        elif group is self.lanes or all(b[3] is group for b in self._pending):
            self._drain_all(top)
        else:
            self._drain_lanes(group, top)

    def _drain_lanes(self, sel, rounds) -> None:
        """Move the pending stores of lanes ``sel`` into the warp's drain
        buffer, under the round ``rounds`` (an int) or each lane's entry
        of the per-lane ``rounds`` array; other lanes' stores stay."""
        eng = self._engine
        warp = self.warp_global
        fencing = np.zeros(self.n, dtype=bool)
        fencing[sel] = True
        buf = None
        still = []
        for region, starts, lengths, lsel in self._pending:
            drain = fencing[lsel]
            if not drain.any():
                still.append((region, starts, lengths, lsel))
                continue
            if buf is None:
                buf = eng._buffers[warp]
            d_starts = starts[drain]
            d_lengths = lengths[drain]
            if not isinstance(rounds, np.ndarray):
                buf.add_arrays(rounds, region, d_starts, d_lengths)
            else:
                d_rounds = rounds[lsel[drain]]
                r0 = int(d_rounds[0])
                if d_rounds.size == 1 or (d_rounds == r0).all():
                    buf.add_arrays(r0, region, d_starts, d_lengths)
                else:
                    for r in np.unique(d_rounds).tolist():
                        sub = d_rounds == r
                        buf.add_arrays(r, region, d_starts[sub], d_lengths[sub])
            if not drain.all():
                keep = ~drain
                still.append((region, starts[keep], lengths[keep], lsel[keep]))
        self._pending = still
        if buf is not None:
            eng._warps_with_writes.add(warp)

    def _drain_all(self, round_no: int) -> None:
        """Move every pending store into the warp's drain round
        ``round_no`` (a fence whose lanes made every pending store, or
        retirement)."""
        eng = self._engine
        eng._buffers[self.warp_global].add_batches(round_no, self._pending)
        self._pending = []
        eng._warps_with_writes.add(self.warp_global)

    def threadfence_system(self, lanes=None) -> None:
        """CUDA-spelled alias of :meth:`persist`."""
        self.persist(lanes)

    def threadfence(self, lanes=None) -> None:
        """Device-scope fences: visibility only, one op per lane."""
        self._engine.acct.ops += self._sel(lanes).size

    def threadfence_block(self, lanes=None) -> None:
        self._engine.acct.ops += self._sel(lanes).size

    # -- lifecycle ---------------------------------------------------------

    def _retire(self) -> None:
        """Warp retirement: unfenced stores drain at the implicit round."""
        if self._pending:
            self._drain_all(_IMPLICIT_ROUND)
