"""The simulated GPU: kernel launches, warp scheduling, bulk transfers.

Execution model
---------------

:meth:`Gpu.launch` runs a kernel functionally, one thread at a time, in warp
order.  Persist-grade stores buffered by the threads (see
:mod:`repro.gpu.kernel`) are delivered to the machine at warp-retire (or
barrier) boundaries so that lockstep stores coalesce into shared PCIe
transactions and Optane drain epochs.

Timing model
------------

The launch's elapsed simulated time is::

    launch_overhead + max(compute, hbm, host_write, host_read)

* ``compute``: charged ops / min(threads, parallel lanes).
* ``hbm``: bytes moved to/from GDDR6 at the HBM bandwidth.
* ``host_write``: the larger of (a) the PCIe transaction stream under the
  link's bounded concurrency, (b) the per-warp fence critical path
  (``rounds x RTT x waves`` - a thread cannot overlap its own fences), and
  (c) the Optane media drain time of the written epochs.
* ``host_read``: PM/DRAM loads over the link.

This reproduces the two behaviours the paper's performance story rests on:
massive parallelism hides individual persist latency (Fig. 3b rises), and
the link's bounded concurrency plus the media's pattern sensitivity cap it
(Fig. 3b plateaus, Fig. 12 varies by workload).
"""

from __future__ import annotations

import inspect
import math
from collections import defaultdict

import numpy as np

from ..sim.bulk import BulkTransfer, iota64
from ..sim.crash import CrashInjector, SimulatedCrash
from ..sim.events import (
    EpochBoundary,
    HbmWrite,
    KernelLaunch,
    PcieWrite,
    SystemFence,
    WarpDrain,
)
from ..sim.machine import Machine
from ..sim.memory import MemKind, Region
from ..sim.optane import merge_segment_lists, merge_segments_grouped
from ..sim.persistency import active_mutant
from .hierarchy import Dim3, ThreadId
from .kernel import (
    _IMPLICIT_ROUND,
    GpuFault,
    KernelResult,
    LaunchAccounting,
    ThreadContext,
    _WarpDrainBuffer,
)
from .warp import WarpContext, resolve_warp_impl


class _BlockEngine:
    """Shared machinery between the threads of one launch."""

    #: Region runs of up to this many queued segments are delivered from
    #: Python ints, larger ones through numpy (see
    #: ``benchmarks/test_drain_small.py``).
    LIST_DRAIN_SEGMENTS = 64

    def __init__(self, machine: Machine, acct: LaunchAccounting,
                 defer: bool = False) -> None:
        self.machine = machine
        self.acct = acct
        #: Warp-round drains queue in delivery order and drain per region
        #: run - one merge and one machine call for thousands of warps - at
        #: the next barrier/finish.  Without ``defer`` (a crash injector is
        #: supplied, armed or not) the queue drains right after every
        #: append, so each warp round reaches the machine, and can be
        #: crashed at, on its own; such a one-round run is usually within
        #: :attr:`LIST_DRAIN_SEGMENTS` and is delivered from Python ints.
        #: Events, accounting and the persisted image are identical either
        #: way; only the crash frontiers between drains differ.
        self.defer = defer
        self._queue: list = []
        #: fence ordering applied this launch - the machine's persistency
        #: model decides (strict: every fence is its own ordered drain
        #: round; epoch: fences coalesce per epoch, ordering only across
        #: barriers; relaxed: durability only at kernel completion).
        self.policy = machine.persistency.fence_policy
        #: warp -> its pending drain rounds, created on the warp's first
        #: fenced (or retiring) store.
        self._buffers: dict[int, _WarpDrainBuffer] = defaultdict(_WarpDrainBuffer)
        self._warp_rounds: dict[int, int] = {}
        self._warps_with_writes: set[int] = set()
        #: fences completed this launch; emitted as one batched SystemFence
        #: event at finish() so the per-fence hot path is a counter bump.
        self._fence_count = 0
        #: epoch-policy state: the open epoch's ordinal, whether it saw any
        #: fences, and the last epoch each warp fenced in (to count each
        #: warp's drain rounds as epochs-with-fences, not fences).
        self._epoch = 1
        self._epoch_dirty = False
        self._warp_epoch_seen: dict[int, int] = {}

    # -- metering (called by ThreadContext) -------------------------------

    def meter_read(self, region: Region, nbytes: int) -> None:
        if region.kind is MemKind.HBM:
            self.acct.hbm_read_bytes += nbytes
        else:
            self.acct.host_read_bytes += nbytes

    def meter_write(self, ctx: ThreadContext, region: Region, offset: int, nbytes: int) -> None:
        if region.kind is MemKind.HBM:
            self.acct.hbm_write_bytes += nbytes
        else:
            ctx._pending.append((region, offset, nbytes))

    def meter_atomic(self, ctx: ThreadContext, region: Region, offset: int, nbytes: int) -> None:
        # An atomic is a read-modify-write; over PCIe both directions count.
        self.acct.ops += 4
        if region.kind is MemKind.HBM:
            self.acct.hbm_read_bytes += nbytes
            self.acct.hbm_write_bytes += nbytes
        else:
            self.acct.host_read_bytes += nbytes
            ctx._pending.append((region, offset, nbytes))

    def fence(self, ctx: ThreadContext) -> None:
        self.acct.fences += 1
        self._fence_count += 1
        warp = ctx.tid.warp_global
        if self.policy == "relaxed":
            # Durability only at kernel completion: the fence costs nothing
            # and orders nothing; pending stores ride to the implicit round.
            return
        if self.policy == "epoch":
            # Fences within one epoch coalesce into a single drain round;
            # a warp pays one RTT per epoch it fences in, not per fence.
            if self._warp_epoch_seen.get(warp) != self._epoch:
                self._warp_epoch_seen[warp] = self._epoch
                self._warp_rounds[warp] = self._warp_rounds.get(warp, 0) + 1
            self._epoch_dirty = True
            round_no = self._epoch
        else:
            ctx._round += 1
            self._warp_rounds[warp] = max(self._warp_rounds.get(warp, 0), ctx._round)
            round_no = ctx._round
        if ctx._pending:
            self._buffers[warp].add_many(round_no, ctx._pending)
            ctx._pending.clear()
            self._warps_with_writes.add(warp)

    # -- lifecycle ---------------------------------------------------------

    def thread_retired(self, ctx: ThreadContext) -> None:
        """Move a retiring thread's unfenced stores to the implicit round."""
        if ctx._pending:
            warp = ctx.tid.warp_global
            self._buffers[warp].add_many(_IMPLICIT_ROUND, ctx._pending)
            ctx._pending.clear()
            self._warps_with_writes.add(warp)

    def flush_warp(self, warp_global: int) -> None:
        buf = self._buffers.pop(warp_global, None)
        if buf is None:
            return
        rounds = buf.rounds
        # Sentinel mutant "fence-order": deliver the buffered rounds in
        # reverse - a later fence's writes become durable while an earlier
        # fence's are still pending, re-planting the broken-demo bug at the
        # engine level for the litmus fuzzer to catch.  A single round (the
        # convergent one-fence warp) has no order to sort or reverse.
        order = rounds if len(rounds) == 1 else sorted(
            rounds, reverse=active_mutant() == "fence-order")
        queue = self._queue
        for round_no in order:
            for region, starts, lengths in rounds[round_no].values():
                queue.append((region, starts, lengths, round_no))
                if not self.defer:
                    self._drain_queue()
                    queue = self._queue

    def flush_all(self) -> None:
        for warp in list(self._buffers):
            self.flush_warp(warp)

    def epoch_boundary(self) -> None:
        """Close the open epoch (block barrier / kernel completion).

        Only meaningful under epoch-policy models, and only when the epoch
        initiated persists: emits :class:`EpochBoundary` - the frontier at
        which epoch-persistency ordering becomes observable - and opens the
        next epoch.  Callers flush first, so the boundary lands after the
        epoch's drains in the event stream.
        """
        self._drain_queue()
        if self.policy != "epoch" or not self._epoch_dirty:
            return
        nxt = self.machine.persistency.advance_epoch(self._epoch)
        if nxt == self._epoch:
            # The model declined to open a new epoch (the "epoch-boundary"
            # sentinel mutant): adjacent epochs silently coalesce and no
            # boundary frontier is announced.
            return
        self.machine.events.emit(EpochBoundary(epoch=self._epoch))
        self._epoch = nxt
        self._epoch_dirty = False

    def _drain_queue(self) -> None:
        """Deliver the queued warp-round drains, one route per region run.

        Consecutive same-region queue entries form a region run, one group
        per entry.  A run of at most :attr:`LIST_DRAIN_SEGMENTS` queued
        segments - an eager drain of one warp round, typically - is merged,
        counted and delivered from Python ints (:meth:`_deliver_lists`);
        larger runs are merged in one numpy pass (:meth:`_deliver_arrays`).
        Both end in one :meth:`Machine.io_write_arrival_groups` call, which
        alone decides each group's route; its ``before_group`` hook emits
        each group's :class:`WarpDrain` and charges its PCIe bytes and
        transactions before the group arrives, so a crash fired on the
        drain event leaves that drain uncharged.  Media time is charged once
        the whole run has arrived.
        """
        queue = self._queue
        if not queue:
            return
        self._queue = []
        i, n = 0, len(queue)
        while i < n:
            region = queue[i][0]
            j = i + 1
            while j < n and queue[j][0] is region:
                j += 1
            entries = queue[i:j]
            i = j
            # The scalar lane buffers lists of ints, the warp lane lists of
            # numpy batches; the warps a launch drains all ran one lane (a
            # warp a crash cuts runs per thread but dies before its flush),
            # so the first entry tells the kind.
            warp_lane = isinstance(entries[0][1][0], np.ndarray)
            if warp_lane:
                segments = sum(b.size for e in entries for b in e[1])
            else:
                segments = sum(len(e[1]) for e in entries)
            if segments <= self.LIST_DRAIN_SEGMENTS:
                self._deliver_lists(region, entries, warp_lane)
            else:
                self._deliver_arrays(region, entries, warp_lane)

    def _deliver_lists(self, region: Region, entries: list, warp_lane: bool) -> None:
        """One region run, merged group by group on Python ints."""
        acct = self.acct
        emit = self.machine.events.emit
        tx_bytes = self.machine.config.pcie_tx_bytes
        name = region.name
        run_starts: list[int] = []
        run_lengths: list[int] = []
        bounds = [0]
        drains = []
        for _region, starts, lengths, round_no in entries:
            if warp_lane:
                starts = [x for b in starts for x in b.tolist()]
                lengths = [x for b in lengths for x in b.tolist()]
            run_s, run_l = merge_segment_lists(starts, lengths)
            # 128 B spans per run; a zero-length run carries no transaction.
            tx = sum([(s + l - 1) // tx_bytes - s // tx_bytes + 1
                      for s, l in zip(run_s, run_l) if l])
            drains.append((WarpDrain(
                region=name,
                round_no=-1 if round_no == _IMPLICIT_ROUND else round_no,
                segments=len(run_s), nbytes=sum(run_l),
                starts=np.array(run_s, dtype=np.int64),
                lengths=np.array(run_l, dtype=np.int64),
            ), tx))
            run_starts += run_s
            run_lengths += run_l
            bounds.append(len(run_starts))

        def _drain(g):
            drain, tx = drains[g]
            emit(drain)
            acct.host_write_bytes += drain.nbytes
            acct.host_write_tx += tx

        times = self.machine.io_write_arrival_groups(
            region, run_starts, run_lengths, bounds, before_group=_drain)
        for t in times:
            acct.pm_media_time += t

    def _deliver_arrays(self, region: Region, entries: list, warp_lane: bool) -> None:
        """One region run, merged in one :func:`merge_segments_grouped` pass."""
        acct = self.acct
        emit = self.machine.events.emit
        tx_bytes = self.machine.config.pcie_tx_bytes
        n_groups = len(entries)
        # One flat start/length array per region run.
        if warp_lane:
            batches = [b for e in entries for b in e[1]]
            flat_s = np.concatenate(batches)
            flat_l = np.concatenate([b for e in entries for b in e[2]])
            owner = [g for g, e in enumerate(entries) for _b in e[1]]
            sizes = [b.size for b in batches]
        else:
            flat_s = np.array([x for e in entries for x in e[1]], dtype=np.int64)
            flat_l = np.array([x for e in entries for x in e[2]], dtype=np.int64)
            owner = range(n_groups)
            sizes = [len(e[1]) for e in entries]
        run_s, run_l, run_g = merge_segments_grouped(
            flat_s, flat_l, np.repeat(owner, sizes), region.size + 1)
        bounds = run_g.searchsorted(np.arange(n_groups + 1)).tolist()
        nbytes_l = np.bincount(run_g, weights=run_l,
                               minlength=n_groups).astype(np.int64).tolist()
        # 128 B spans per run; a zero-length run carries no transaction.
        spans = ((run_s + run_l - 1) // tx_bytes - run_s // tx_bytes + 1) * (run_l > 0)
        tx_l = np.bincount(run_g, weights=spans,
                           minlength=n_groups).astype(np.int64).tolist()

        name = region.name

        def _drain(g):
            lo, hi = bounds[g], bounds[g + 1]
            round_no = entries[g][3]
            emit(WarpDrain(
                region=name,
                round_no=-1 if round_no == _IMPLICIT_ROUND else round_no,
                segments=hi - lo, nbytes=nbytes_l[g],
                starts=run_s[lo:hi], lengths=run_l[lo:hi],
            ))
            acct.host_write_bytes += nbytes_l[g]
            acct.host_write_tx += tx_l[g]

        times = self.machine.io_write_arrival_groups(
            region, run_s.tolist(), run_l.tolist(), bounds, before_group=_drain)
        for t in times:
            acct.pm_media_time += t

    def finish(self) -> None:
        # Round and warp tallies first: a crash fired by the events below
        # still leaves the launch's accounting complete.
        if (self.policy == "relaxed" and self.acct.fences
                and self._warps_with_writes):
            # All persist traffic drains as one round at kernel completion.
            self.acct.max_warp_rounds = 1
        else:
            self.acct.max_warp_rounds = max(self._warp_rounds.values(), default=0)
        self.acct.warps_with_host_writes = len(self._warps_with_writes)
        self.flush_all()
        self.epoch_boundary()
        if self._fence_count:
            self.machine.events.emit(SystemFence(count=self._fence_count))
            self._fence_count = 0


class Gpu:
    """The simulated PCIe-attached GPU of the platform."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.config = machine.config

    # ------------------------------------------------------------------
    # kernel launch
    # ------------------------------------------------------------------

    def launch(
        self,
        kernel,
        grid_dim,
        block_dim,
        args: tuple = (),
        *,
        compute_ops_per_thread: int = 0,
        shared_factory=None,
        crash_injector: CrashInjector | None = None,
        advance_clock: bool = True,
    ) -> KernelResult:
        """Run ``kernel`` over a grid; returns timing and traffic.

        ``kernel`` is called as ``kernel(ctx, *args)`` per thread.  If it is
        a generator function, each ``yield`` is a block-wide barrier
        (``__syncthreads``).  ``shared_factory(block_id)`` builds the
        block's shared-memory object (default: a fresh dict).

        Kernels carrying a warp-level implementation (see
        :func:`repro.gpu.warp.vectorized_for`) execute on the vectorized
        lane - one Python call per warp instead of per thread - with
        bit-identical accounting, events, and memory images, under any
        ``crash_injector`` too.  A plain warp reports its retirement to the
        injector as one-thread retirements, the counts the scalar lane
        reports, and no event falls between two of them because drains
        wait for the warp's flush.  Only the one warp that a thread-count
        crash cuts before its last thread (the injector's ``cuts_warp``)
        runs thread at a time, through the scalar loop; a cut on a warp's
        last thread fires in the same ``advance`` on either lane, before
        the warp's flush.  Under any injector every warp round drains on
        its own (no deferred queue), so each drain stays its own frontier.
        ``KernelResult.lane`` reports which lane ran; :func:`scalar_lane
        <repro.gpu.warp.scalar_lane>` is the only switch that forces the
        scalar lane.

        Raises :class:`~repro.sim.crash.SimulatedCrash` if an armed
        ``crash_injector`` fires mid-launch; simulated time for the partial
        execution is still charged, and stores not yet drained are lost.

        ``advance_clock=False`` computes the elapsed time without advancing
        the machine clock - used by the multi-GPU coordinator, which
        overlaps several launches and advances by their combined critical
        path instead.
        """
        grid = Dim3.of(grid_dim)
        block = Dim3.of(block_dim)
        grid_count = grid.count
        block_count = block.count
        if block_count > 1024:
            raise GpuFault(f"block of {block_count} threads exceeds the 1024-thread limit")
        warp_size = self.config.gpu_warp_size
        total_threads = grid_count * block_count
        total_warps = grid_count * -(-block_count // warp_size)
        acct = LaunchAccounting(ops=compute_ops_per_thread * total_threads)
        engine = _BlockEngine(self.machine, acct, defer=crash_injector is None)
        self.machine.events.emit(KernelLaunch(kind="kernel"))
        warp_impl = resolve_warp_impl(kernel)
        run_as = warp_impl if warp_impl is not None else kernel
        is_generator = inspect.isgeneratorfunction(run_as)
        retired = 0
        crashed = False
        try:
            for block_flat in range(grid_count):
                shared = shared_factory(block_flat) if shared_factory else {}
                if warp_impl is not None:
                    retired = self._run_block_warps(
                        kernel, warp_impl, grid, block, block_flat,
                        shared, args, engine, warp_size, retired,
                        is_generator, crash_injector,
                    )
                    continue
                contexts = [
                    ThreadContext(
                        ThreadId(grid, block, block_flat, t, warp_size), shared, engine
                    )
                    for t in range(block_count)
                ]
                if is_generator:
                    retired = self._run_block_generators(
                        kernel, contexts, args, engine, retired, crash_injector
                    )
                else:
                    retired = self._run_block_plain(
                        kernel, contexts, args, engine, warp_size, retired, crash_injector
                    )
        except SimulatedCrash:
            # The machine has crashed: stores still buffered or queued died
            # with it and must not drain into the post-crash machine.
            crashed = True
            engine._buffers.clear()
            engine._queue.clear()
            raise
        except Exception:
            crashed = True
            raise
        finally:
            try:
                engine.finish()
            finally:
                # Charged even when a crash fires inside finish() itself
                # (at the kernel's closing fence or epoch boundary).
                frac = retired / total_threads if total_threads else 1.0
                elapsed = self._launch_elapsed(acct, total_threads, total_warps)
                if crashed:
                    elapsed *= max(frac, 1.0 / max(total_threads, 1))
                if advance_clock:
                    self.machine.clock.advance(elapsed)
        return KernelResult(
            elapsed=elapsed,
            accounting=acct,
            threads=total_threads,
            warps=total_warps,
            lane="warp" if warp_impl is not None else "scalar",
        )

    def _run_block_plain(self, kernel, contexts, args, engine, warp_size, retired, injector):
        for w0 in range(0, len(contexts), warp_size):
            warp_ctxs = contexts[w0 : w0 + warp_size]
            retired = self._run_threads(kernel, warp_ctxs, args, engine,
                                        retired, injector)
            engine.flush_warp(warp_ctxs[0].tid.warp_global)
        return retired

    @staticmethod
    def _run_threads(kernel, warp_ctxs, args, engine, retired, injector):
        """One warp of a plain kernel, thread at a time (the scalar lane)."""
        for ctx in warp_ctxs:
            kernel(ctx, *args)
            engine.thread_retired(ctx)
            retired += 1
            if injector is not None:
                injector.advance(1)
        return retired

    def _run_block_generators(self, kernel, contexts, args, engine, retired, injector):
        active = []
        for ctx in contexts:
            gen = kernel(ctx, *args)
            active.append((ctx, gen))
        while active:
            still = []
            newly = 0
            for ctx, gen in active:
                try:
                    next(gen)
                    still.append((ctx, gen))
                except StopIteration:
                    engine.thread_retired(ctx)
                    retired += 1
                    newly += 1
            # Barrier (or block end): all fenced batches become visible in
            # program order before any post-barrier store.  Under epoch
            # persistency the barrier also closes the epoch.
            engine.flush_all()
            engine.epoch_boundary()
            if injector is not None:
                injector.advance(newly)
            active = still
        return retired

    def _run_block_warps(self, kernel, warp_impl, grid, block, block_flat,
                         shared, args, engine, warp_size, retired,
                         is_generator, injector):
        """One block on the vectorized lane: one Python call per warp.

        Plain warp kernels mirror ``_run_block_plain``: run the warp, move
        its unfenced stores to the implicit round, advance the injector
        once per thread, flush.  A warp that an armed thread-count crash
        cuts before its last thread runs thread at a time instead, through
        the scalar loop (``_run_threads``) on the same engine and shared
        object; the crash fires inside it.  Generator warp kernels mirror
        ``_run_block_generators``: every warp advances to the barrier, then
        the block-wide ``flush_all`` delivers all fenced batches in program
        order before the injector advances by the threads that finished -
        so event order and retired-thread counts are identical by
        construction.
        """
        # Thread ids are slices of one shared read-only ramp over the grid,
        # not per-warp arithmetic: lanes w0..end of the block, and of the
        # grid from the block's base.
        grid_count, block_count = grid.count, block.count
        base = block_flat * block_count
        ramp = iota64(grid_count * block_count)
        first_warp = block_flat * ((block_count + warp_size - 1) // warp_size)
        contexts = []
        for w, w0 in enumerate(range(0, block_count, warp_size)):
            end = min(w0 + warp_size, block_count)
            contexts.append(WarpContext(
                grid_count, block_count, block_flat, first_warp + w, w,
                ramp[w0:end], ramp[base + w0:base + end], shared, engine))
        if not is_generator:
            for wctx in contexts:
                n = wctx.n
                if injector is not None and injector.cuts_warp(n):
                    w0 = wctx.warp_in_block * warp_size
                    retired = self._run_threads(kernel, [
                        ThreadContext(ThreadId(grid, block, block_flat, t,
                                               warp_size), shared, engine)
                        for t in range(w0, w0 + n)
                    ], args, engine, retired, injector)
                else:
                    warp_impl(wctx, *args)
                    wctx._retire()
                    retired += n
                    if injector is not None:
                        for _ in range(n):
                            injector.advance(1)
                engine.flush_warp(wctx.warp_global)
            return retired
        running = [(wctx, warp_impl(wctx, *args)) for wctx in contexts]
        while running:
            still = []
            newly = 0
            for wctx, gen in running:
                try:
                    next(gen)
                    still.append((wctx, gen))
                except StopIteration:
                    wctx._retire()
                    newly += wctx.n
            retired += newly
            engine.flush_all()
            engine.epoch_boundary()
            if injector is not None:
                injector.advance(newly)
            running = still
        return retired

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------

    def _launch_elapsed(self, acct: LaunchAccounting, total_threads: int, total_warps: int) -> float:
        cfg = self.config
        waves = -(-total_warps // cfg.gpu_max_resident_warps)
        compute = acct.ops * cfg.gpu_op_latency_s / max(
            1, min(total_threads, cfg.gpu_parallel_lanes)
        )
        hbm = (acct.hbm_read_bytes + acct.hbm_write_bytes) / cfg.gpu_hbm_bw
        warps_issuing = max(1, min(acct.warps_with_host_writes, cfg.gpu_max_resident_warps))
        host_write = self.machine.pcie.fine_grained_write_time(
            acct.host_write_tx, acct.host_write_bytes, warps_issuing
        )
        fence_chain = acct.max_warp_rounds * cfg.pcie_rtt_s * waves
        host_write = max(host_write, fence_chain, acct.pm_media_time, acct.serial_time)
        read_warps = max(1, min(total_warps, cfg.gpu_max_resident_warps))
        host_read = self.machine.pcie.read_time(acct.host_read_bytes, read_warps)
        return cfg.gpu_kernel_launch_s + max(compute, hbm, host_write, host_read)

    # ------------------------------------------------------------------
    # bulk transfers (engine-level helpers used by libGPM and baselines)
    # ------------------------------------------------------------------

    def stream_copy(
        self,
        dst: Region,
        dst_off: int,
        src: Region,
        src_off: int,
        nbytes: int,
        persist: bool = True,
    ) -> float:
        """Device-wide streaming copy kernel (128 B-aligned, coalesced).

        This is the data path of ``gpmcp_checkpoint``/``gpmcp_restore``: a
        grid of warps streams ``nbytes`` between HBM and host memory with
        perfectly coalesced accesses, then (optionally) issues one
        system-scope fence.  Returns elapsed seconds (also advances the
        clock).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        cfg = self.config
        self.machine.events.emit(KernelLaunch(kind="stream_copy"))
        BulkTransfer(dst, dst_off, src, src_off, nbytes).apply()
        elapsed = cfg.gpu_kernel_launch_s
        if nbytes:
            if dst.kind is MemKind.HBM and src.kind is MemKind.HBM:
                elapsed += 2 * nbytes / cfg.gpu_hbm_bw
            elif dst.kind is MemKind.HBM:
                # host -> device restore path
                elapsed += max(
                    self.machine.pcie.stream_read_time(nbytes),
                    nbytes / cfg.gpu_hbm_bw,
                )
                if src.kind is MemKind.PM:
                    elapsed += self.machine.optane.read(0)  # latency term only
            else:
                # device -> host streaming write
                pcie_t = self.machine.pcie.stream_write_time(nbytes)
                media_t = self.machine.io_write_arrival(dst, [dst_off], [nbytes])
                elapsed += max(pcie_t, media_t, nbytes / cfg.gpu_hbm_bw)
                if persist:
                    self.machine.events.emit(SystemFence())
                    elapsed += cfg.pcie_rtt_s
        self.machine.clock.advance(elapsed)
        return elapsed

    def scatter_store_bulk(
        self,
        region: Region,
        offsets: np.ndarray,
        values: np.ndarray,
        item_bytes: int,
        fence_rounds: int = 1,
        ops_per_item: int = 0,
    ) -> float:
        """A data-parallel kernel of scattered stores + persists, vectorised.

        Equivalent to launching one thread per item where thread *i* stores
        ``item_bytes`` at byte offset ``offsets[i]`` and fences - but the
        warp grouping, coalescing, Optane epochs and timing are computed
        with numpy so large native-persistence workloads (BFS frontiers,
        SRAD planes) stay tractable.  Items are assigned to warps of 32 in
        order, as the launch engine would.  Returns elapsed seconds.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        n = offsets.size
        cfg = self.config
        self.machine.events.emit(KernelLaunch(kind="scatter"))
        if n == 0:
            self.machine.clock.advance(cfg.gpu_kernel_launch_s)
            return cfg.gpu_kernel_launch_s
        flat = np.ascontiguousarray(values).reshape(-1)
        raw = flat.view(np.uint8)
        if raw.size != n * item_bytes:
            raise ValueError(
                f"values supply {raw.size} bytes for {n} items of {item_bytes} B"
            )
        # Functional scatter: one fancy-indexed assignment; duplicate offsets
        # resolve last-item-wins, as the sequential store loop would (both
        # paths are item-granular, so the equivalence holds under aliasing).
        if (
            item_bytes == flat.dtype.itemsize
            and item_bytes in (2, 4, 8)
            and region.size % item_bytes == 0
            and not (offsets & (item_bytes - 1)).any()
        ):
            # Aligned typed scatter: one element store per item instead of
            # item_bytes byte stores.
            region.visible.view(flat.dtype)[offsets >> item_bytes.bit_length() - 1] = flat
        else:
            idx = (offsets[:, None] + np.arange(item_bytes, dtype=np.int64)).reshape(-1)
            region.visible[idx] = raw
        lengths = np.full(n, item_bytes, dtype=np.int64)
        nbytes_total = n * item_bytes
        if region.kind is MemKind.HBM:
            # Device-local scatter: only compute + HBM bandwidth matter.
            self.machine.events.emit(HbmWrite(nbytes=nbytes_total))
            compute = ops_per_item * n * cfg.gpu_op_latency_s / max(
                1, min(n, cfg.gpu_parallel_lanes)
            )
            elapsed = cfg.gpu_kernel_launch_s + max(
                nbytes_total / cfg.gpu_hbm_bw, compute
            )
            self.machine.clock.advance(elapsed)
            return elapsed
        # Warp-granular coalescing + delivery: merge every warp's segments
        # in one numpy pass and hand the machine all per-warp arrivals.
        warp = cfg.gpu_warp_size
        n_warps = (n + warp - 1) // warp
        run_s, run_l, run_g = merge_segments_grouped(
            offsets, lengths, np.arange(n, dtype=np.int64) // warp,
            int(offsets.max()) + item_bytes + 1)
        times = self.machine.io_write_arrival_groups(
            region, run_s.tolist(), run_l.tolist(),
            run_g.searchsorted(np.arange(n_warps + 1)).tolist())
        media = float(np.sum(times))
        total_tx = self.machine.pcie.transactions_for(run_s, run_l)
        self.machine.events.emit(SystemFence(count=fence_rounds * n))
        warps_issuing = min(n_warps, cfg.gpu_max_resident_warps)
        pcie_t = self.machine.pcie.fine_grained_write_time(total_tx, nbytes_total, warps_issuing)
        waves = max(1, math.ceil(n_warps / cfg.gpu_max_resident_warps))
        fence_chain = fence_rounds * cfg.pcie_rtt_s * waves
        compute = ops_per_item * n * cfg.gpu_op_latency_s / max(1, min(n, cfg.gpu_parallel_lanes))
        elapsed = cfg.gpu_kernel_launch_s + max(pcie_t, fence_chain, media, compute)
        self.machine.clock.advance(elapsed)
        return elapsed

    def compute(self, total_ops: float, active_threads: int | None = None) -> float:
        """Charge a compute-only kernel of ``total_ops`` arithmetic operations.

        Used by workloads whose math runs vectorised on the host for speed
        (DNN training, CFD, stencils): the *function* is computed with
        numpy, the *time* is modelled here as a GPU kernel with the given
        parallelism.  Returns elapsed seconds (also advances the clock).
        """
        cfg = self.config
        self.machine.events.emit(KernelLaunch(kind="compute"))
        lanes = cfg.gpu_parallel_lanes
        if active_threads is not None:
            lanes = max(1, min(active_threads, lanes))
        elapsed = cfg.gpu_kernel_launch_s + total_ops * cfg.gpu_op_latency_s / lanes
        self.machine.clock.advance(elapsed)
        return elapsed

    def store_and_persist_value(self, region: Region, offset: int, value, dtype=np.uint32) -> float:
        """One store + system fence from a single GPU thread.

        Used for tiny metadata persists (transaction flags, checkpoint
        flips) issued outside a kernel's data path.
        """
        dtype = np.dtype(dtype)
        arr = np.asarray(value, dtype=dtype)
        raw = np.frombuffer(arr.tobytes(), dtype=np.uint8)
        region.write_bytes(offset, raw)
        media = self.machine.io_write_arrival(region, [offset], [len(raw)])
        self.machine.events.emit(SystemFence())
        self.machine.events.emit(PcieWrite(nbytes=len(raw), transactions=1))
        elapsed = self.machine.config.pcie_rtt_s + media
        self.machine.clock.advance(elapsed)
        return elapsed
