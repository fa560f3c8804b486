"""The served KV store: gpKVS's kernels behind sharded logs.

:class:`ShardedKvStore` owns the same on-PM state as the batch workload -
an 8-way set-associative table, a volatile HBM mirror for GETs - but
replaces the single undo log + transaction flag with a
:class:`~repro.serve.shards.ShardedHclLog`.  Batches arriving from the
:class:`~repro.serve.batcher.Batcher` are grouped by shard and launched as
warp-sized kernels (**the unmodified** ``set_kernel`` / ``get_kernel`` /
``delete_kernel`` of :mod:`repro.workloads.kvs`); each shard's launch
carries that shard's log, so undo entries for disjoint key ranges land in
disjoint PM files.

Concurrent persistence: shard launches within one flush touch disjoint
table slices and disjoint logs, so - like the multi-GPU coordinator - each
launch is priced with ``advance_clock=False`` and the clock advances by
the *slowest shard's* critical path, not the sum.  With a crash injector
armed the launches run sequentially instead (crash exploration wants exact
per-launch interleavings, and simulated time is not under test there).

Recovery (:func:`recover_store`) is Fig. 6b per shard: an active persisted
flag means that shard's batch slice was in flight, so the existing
recovery kernel undoes it from that shard's log; idle shards just truncate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..core.mapping import gpm_map
from ..core.transactions import TransactionFlag
from ..gpu.memory import DeviceArray
from ..sim.events import TraceMark
from ..workloads.base import Mode, ModeDriver, make_system
from ..workloads.kvs import (
    _recovery_kernel,
    delete_kernel,
    get_kernel,
    hash64_vec,
    persist_touched_pairs,
    set_kernel,
)
from .shards import ShardedHclLog

_WARP = 32
TABLE_PATH = "/pm/serve/table"
SERVE_BASE = "/pm/serve"


@dataclass
class StoreConfig:
    """Geometry of the served store (scaled like the batch workload)."""

    n_sets: int = 4096          # sized so sets never fill (no evictions)
    ways: int = 8
    n_shards: int = 4
    #: per-flush request cap; sizes each shard's log geometry (the whole
    #: flush can land in one shard in the worst case)
    max_batch: int = 256
    block_dim: int = 32         # one warp per block: warp-sized launches

    @property
    def n_pairs(self) -> int:
        return self.n_sets * self.ways

    @property
    def log_blocks(self) -> int:
        return -(-self.max_batch // self.block_dim)


class ShardedKvStore:
    """gpKVS state + sharded logs, executing batches shard-by-shard."""

    def __init__(self, system, driver: ModeDriver, config: StoreConfig,
                 table, keys: DeviceArray, values: DeviceArray,
                 mirror_keys: DeviceArray, mirror_values: DeviceArray,
                 shards: ShardedHclLog) -> None:
        self.system = system
        self.driver = driver
        self.config = config
        self.table = table
        self.keys = keys
        self.values = values
        self.mirror_keys = mirror_keys
        self.mirror_values = mirror_values
        self.shards = shards
        #: Persistent staging arena for batch arguments: one HBM region,
        #: lazily grown, sliced per shard each flush.  Replaces the
        #: alloc/free pair every shard group used to pay per flush.
        self._stage = None
        self._stage_ids = itertools.count()

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, mode: Mode = Mode.GPM, system=None,
               config: StoreConfig | None = None) -> "ShardedKvStore":
        config = config or StoreConfig()
        if not mode.data_on_pm:
            raise ValueError(
                f"the serving layer needs a PM-direct mode (got {mode.value}): "
                "sharded HCL logs live on PM")
        system = system or make_system(mode)
        driver = ModeDriver(system, mode)
        table = driver.buffer(TABLE_PATH, config.n_pairs * 16, fine_grained=True)
        keys = table.array(np.uint64, 0, config.n_pairs)
        values = table.array(np.uint64, config.n_pairs * 8, config.n_pairs)
        mirror = system.machine.alloc_hbm("serve.mirror", config.n_pairs * 16)
        mirror_keys = DeviceArray(mirror, np.uint64, 0, config.n_pairs)
        mirror_values = DeviceArray(mirror, np.uint64, config.n_pairs * 8,
                                    config.n_pairs)
        shards = ShardedHclLog.create(system, SERVE_BASE, config.n_shards,
                                      config.n_sets, config.ways,
                                      config.log_blocks, config.block_dim)
        return cls(system, driver, config, table, keys, values,
                   mirror_keys, mirror_values, shards)

    # -- shard addressing ----------------------------------------------------

    def shard_of_keys(self, batch_keys: np.ndarray) -> np.ndarray:
        cfg = self.config
        set_idxs = (hash64_vec(batch_keys) % np.uint64(cfg.n_sets)).astype(np.int64)
        return self.shards.shard_of_set(set_idxs)

    def _shard_groups(self, batch_keys: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """``(shard, request_indices)`` pairs, ascending by shard id."""
        by_shard = self.shard_of_keys(batch_keys)
        return [(int(s), np.flatnonzero(by_shard == s))
                for s in np.unique(by_shard)]

    def _grid(self, n_ops: int) -> int:
        return -(-n_ops // self.config.block_dim)

    def _stage_buffer(self, nbytes: int):
        """The flush's staging arena in HBM, grown on demand.

        Every flush fully overwrites the slices it uses (and the GET
        kernel writes every output slot), so the arena is reused across
        flushes without clearing.
        """
        if self._stage is None or self._stage.size < nbytes:
            machine = self.system.machine
            if self._stage is not None:
                machine.free(self._stage)
            name = f"serve.stage-{next(self._stage_ids)}"
            while name in machine._regions:
                name = f"serve.stage-{next(self._stage_ids)}"
            self._stage = machine.alloc_hbm(
                name, max(nbytes, self.config.max_batch * 16))
        return self._stage

    # -- batched execution ---------------------------------------------------

    def _launch_groups(self, kernel, groups, make_args, crash_injector):
        """Launch one shard group per kernel; overlap their critical paths.

        ``make_args(shard, idx, touched)`` builds the launch's argument
        tuple.  Returns ``(total_threads, touched_slots, lane)``.
        """
        cfg = self.config
        gpu = self.system.gpu
        touched: list[int] = []
        total_threads = 0
        lane = "scalar"
        overlap = crash_injector is None and len(groups) > 1
        slowest = 0.0
        for shard, idx in groups:
            n_ops = idx.size
            grid = self._grid(n_ops)
            total_threads += grid * cfg.block_dim
            result = gpu.launch(
                kernel, grid, cfg.block_dim, make_args(shard, idx, touched),
                crash_injector=crash_injector,
                advance_clock=not overlap,
            )
            lane = result.lane
            slowest = max(slowest, result.elapsed)
        if overlap:
            # Disjoint table slices, disjoint logs: the shards' drain
            # epochs overlap, so the flush costs its slowest member.
            self.system.clock.advance(slowest)
        return total_threads, touched, lane

    def set_batch(self, batch_keys: np.ndarray, batch_values: np.ndarray,
                  crash_injector=None) -> dict:
        """Transactionally apply one deduplicated SET batch.

        Keys must be unique within the batch (the batcher compacts
        same-key requests, as MegaKV's pipeline does before the kernel).
        Returns launch accounting for the metrics sink.
        """
        return self._mutate(set_kernel, (batch_keys, batch_values),
                            crash_injector)

    def delete_batch(self, batch_keys: np.ndarray, crash_injector=None) -> dict:
        """Transactionally delete one deduplicated batch of keys."""
        return self._mutate(delete_kernel, (batch_keys,), crash_injector)

    def _mutate(self, kernel, columns, crash_injector) -> dict:
        """The logged-mutation path: one batch under the shards' flags.

        ``columns`` are the kernel's per-request inputs, keys first; each
        shard's slice of every column is staged, in order, after the
        previous shard's.
        """
        cfg = self.config
        columns = [np.asarray(c, dtype=np.uint64) for c in columns]
        n = columns[0].size
        if n == 0:
            return {"threads": 0, "shards": 0, "lane": "none"}
        if n > cfg.max_batch:
            raise ValueError(f"batch of {n} exceeds the log geometry "
                             f"({cfg.max_batch})")
        groups = self._shard_groups(columns[0])
        shard_ids = [s for s, _ in groups]
        # Pipelined flush: every shard's slice is compacted and staged into
        # the arena *before* the first launch, so shard k's critical path
        # is accounted while shard k+1's arguments already sit in HBM.
        stage = self._stage_buffer(n * 8 * len(columns))
        staged = {}
        off = 0
        for shard, idx in groups:
            staged[shard] = []
            for column in columns:
                arr = DeviceArray(stage, np.uint64, off, idx.size)
                arr.np[:] = column[idx]
                staged[shard].append(arr)
                off += idx.size * 8
        self.shards.begin(shard_ids)
        self.driver.persist_phase_begin()
        try:
            def make_args(shard, idx, touched):
                return (self.keys, self.values, self.mirror_keys,
                        self.mirror_values, *staged[shard], idx.size,
                        cfg.n_sets, cfg.ways, self.shards.log(shard), touched)

            threads, touched, lane = self._launch_groups(
                kernel, groups, make_args, crash_injector)
        finally:
            self.driver.persist_phase_end()
        persist_touched_pairs(self.table, self.values, touched)
        self.shards.commit(shard_ids)
        return {"threads": threads, "shards": len(groups), "lane": lane}

    def get_batch(self, batch_keys: np.ndarray) -> tuple[np.ndarray, dict]:
        """Serve one GET batch from the HBM mirror (single launch)."""
        cfg = self.config
        batch_keys = np.asarray(batch_keys, dtype=np.uint64)
        n = batch_keys.size
        if n == 0:
            return np.empty(0, dtype=np.uint64), {"threads": 0, "shards": 0,
                                                  "lane": "none"}
        system = self.system
        stage = self._stage_buffer(n * 16)
        bk = DeviceArray(stage, np.uint64, 0, n)
        out = DeviceArray(stage, np.uint64, n * 8, n)
        bk.np[:] = batch_keys
        grid = self._grid(n)
        result = system.gpu.launch(
            get_kernel, grid, cfg.block_dim,
            (self.mirror_keys, self.mirror_values, bk, out, n, cfg.n_sets,
             cfg.ways),
        )
        values = out.np.copy()
        return values, {"threads": grid * cfg.block_dim, "shards": 1,
                        "lane": result.lane}

    # -- crash invariants ----------------------------------------------------

    def declare_invariants(self, system) -> list:
        return serve_invariants(system)


def serve_invariants(system, base: str = SERVE_BASE) -> list:
    """Structural invariants of the served store's durable state.

    Standalone (no live store object needed) so post-crash judges can call
    it on a recovered system: every shard's transaction flag must be idle,
    and the table must have no torn key/value slots.
    """

    def flags_idle() -> tuple[bool, str]:
        if not system.fs.exists(ShardedHclLog.meta_path(base)):
            return True, "crash predates the shard manifest"
        manifest = ShardedHclLog.manifest(system, base)
        stuck = []
        for s in range(manifest["n_shards"]):
            path = ShardedHclLog.flag_path(base, s)
            if system.fs.exists(path) and TransactionFlag.open(system, path).active:
                stuck.append(s)
        if stuck:
            return False, (f"shards {stuck} still flag an active batch "
                           "after recovery")
        return True, f"all {manifest['n_shards']} shard flags idle"

    def table_intact() -> tuple[bool, str]:
        if not system.fs.exists(TABLE_PATH):
            return True, "crash predates the table"
        manifest = ShardedHclLog.manifest(system, base)
        n_pairs = manifest["n_sets"] * manifest["ways"]
        table = gpm_map(system, TABLE_PATH)
        keys = table.region.persisted_view(np.uint64, 0, n_pairs)
        values = table.region.persisted_view(np.uint64, n_pairs * 8, n_pairs)
        torn = np.flatnonzero((keys != 0) & (values == 0))
        if torn.size:
            return False, f"{torn.size} slots have a key but no value"
        return True, "no torn key/value slots"

    return [
        ("serve-flags-idle",
         "every shard's transaction flag is idle after recovery", flags_idle),
        ("serve-table-intact",
         "durable keys always carry their durable values", table_intact),
    ]


def recover_store(system, mode: Mode = Mode.GPM,
                  base: str = SERVE_BASE) -> dict:
    """Post-crash, shard-by-shard recovery through the existing kernel.

    For every shard whose persisted flag is active, the unmodified
    ``_recovery_kernel`` undoes that shard's in-flight batch slice from
    that shard's log; every shard's log is then truncated.  Returns a
    report: which shards needed undo and the simulated recovery latency.
    """
    system.events.emit(TraceMark(category="serve", label="recover"))
    start = system.clock.now
    shards = ShardedHclLog.open(system, base)
    manifest = ShardedHclLog.manifest(system, base)
    n_pairs = manifest["n_sets"] * manifest["ways"]
    table = gpm_map(system, TABLE_PATH)
    keys = table.array(np.uint64, 0, n_pairs)
    values = table.array(np.uint64, n_pairs * 8, n_pairs)
    driver = ModeDriver(system, mode)
    recovered = []
    for s in shards.active_shards():
        log = shards.log(s)
        driver.persist_phase_begin()
        try:
            system.gpu.launch(
                _recovery_kernel, log.blocks, log.threads_per_block,
                (keys, values, None, None, log, manifest["ways"],
                 log.total_threads),
            )
        finally:
            driver.persist_phase_end()
        shards.flag(s).commit()
        recovered.append(s)
    for s in range(shards.n_shards):
        shards.log(s).clear()
    return {"shards": shards.n_shards, "recovered": recovered,
            "elapsed": system.clock.now - start}
