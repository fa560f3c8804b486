"""gpKVS: a GPU-accelerated persistent key-value store (MegaKV on GPM).

Section 4.1 / Fig. 6: MegaKV [102] extended with libGPM transactions.  The
store is an 8-way set-associative hash table of 8-byte keys and values kept
on PM; batched SETs run as GPU kernels where every insertion is write-ahead
undo-logged through HCL, the new pair is stored in place and persisted, and
a per-batch transaction flag brackets the whole batch.  GETs are served from
a volatile HBM mirror of the table ("GETs are mostly served out of the
GPU's fast HBM"), identically in every mode.

Recovery (Fig. 6b): if the persisted transaction flag is set, a recovery
kernel undoes the partial batch from the per-thread logs; otherwise the
logs are simply truncated.

Scaling substitution: the paper runs 25 batches of 2M SETs against a
multi-GB store; we run a few batches of hundreds of SETs against a ~1 MB
store, preserving the update-sparsity ratio that drives CAP's ~39x write
amplification (Table 4).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..core.errors import LogEmpty
from ..core.hcl import HclLog
from ..core.logging import (
    gpmlog_clear,
    gpmlog_create_conv,
    gpmlog_create_hcl,
    gpmlog_insert,
    gpmlog_read,
    gpmlog_remove,
)
from ..core.transactions import TransactionFlag
from ..gpu.memory import DeviceArray
from ..gpu.warp import scalar_lane, vectorized_for
from .base import (
    Category,
    CrashConsistent,
    Mode,
    ModeDriver,
    RunResult,
    make_system,
    measure,
)

_MASK64 = (1 << 64) - 1
#: Undo-log entry: [set u32, way u32, old_key u64, old_value u64]
LOG_ENTRY_BYTES = 24


def hash64(key: int) -> int:
    """SplitMix64 finaliser - the kernel's hash function."""
    k = key & _MASK64
    k = (k ^ (k >> 33)) * 0xFF51AFD7ED558CCD & _MASK64
    k = (k ^ (k >> 29)) * 0xC4CEB9FE1A85EC53 & _MASK64
    return k ^ (k >> 32)


#: :func:`hash64_vec`'s constants: a numpy scalar costs more to build than its op.
_U33, _U29, _U32 = np.uint64(33), np.uint64(29), np.uint64(32)
_MUL1, _MUL2 = np.uint64(0xFF51AFD7ED558CCD), np.uint64(0xC4CEB9FE1A85EC53)


def hash64_vec(keys: np.ndarray) -> np.ndarray:
    """Vectorized :func:`hash64` (bit-identical, parity-tested)."""
    k = np.asarray(keys, dtype=np.uint64)
    k = (k ^ (k >> _U33)) * _MUL1
    k = (k ^ (k >> _U29)) * _MUL2
    return k ^ (k >> _U32)


def _pack_entry(set_idx: int, way: int, old_key: int, old_value: int) -> np.ndarray:
    entry = np.zeros(LOG_ENTRY_BYTES, dtype=np.uint8)
    entry[0:4] = np.frombuffer(np.uint32(set_idx).tobytes(), dtype=np.uint8)
    entry[4:8] = np.frombuffer(np.uint32(way).tobytes(), dtype=np.uint8)
    entry[8:16] = np.frombuffer(np.uint64(old_key).tobytes(), dtype=np.uint8)
    entry[16:24] = np.frombuffer(np.uint64(old_value).tobytes(), dtype=np.uint8)
    return entry


def _pack_entries(set_idxs, ways, old_keys, old_values) -> np.ndarray:
    """Vectorized :func:`_pack_entry`: one entry per row, as ``(k, 6)``
    uint32 chunks (a ``uint64`` view: set and way share the first word)."""
    entries = np.empty((len(set_idxs), 3), dtype=np.uint64)
    entries[:, 0] = set_idxs | ways << 32
    entries[:, 1] = old_keys
    entries[:, 2] = old_values
    return entries.view(np.uint32)


def _unpack_entry(raw: np.ndarray) -> tuple[int, int, int, int]:
    return (
        int(raw[0:4].view(np.uint32)[0]),
        int(raw[4:8].view(np.uint32)[0]),
        int(raw[8:16].view(np.uint64)[0]),
        int(raw[16:24].view(np.uint64)[0]),
    )


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def set_kernel(ctx, keys, values, mirror_keys, mirror_values, batch_keys,
               batch_values, n_ops, n_sets, ways, log, touched):
    """One batched SET per thread - the (simplified) kernel of Fig. 6a."""
    i = ctx.global_id
    if i >= n_ops:
        return
    key = int(batch_keys.read(ctx, i))
    value = int(batch_values.read(ctx, i))
    ctx.charge_ops(6)  # hashing
    set_idx = hash64(key) % n_sets
    base = set_idx * ways
    row = keys.read_vec(ctx, base, ways)
    loc = -1
    for w in range(ways):
        if int(row[w]) == key:
            loc = w
            break
    if loc < 0:
        for w in range(ways):
            if int(row[w]) == 0:
                loc = w
                break
    if loc < 0:
        loc = hash64(key ^ 0x9E3779B97F4A7C15) % ways  # evict a pseudo-random way
    old_key = int(row[loc])
    old_value = int(values.read(ctx, base + loc))
    if log is not None:
        gpmlog_insert(ctx, log, _pack_entry(set_idx, loc, old_key, old_value))
    keys.write(ctx, base + loc, key)
    values.write(ctx, base + loc, value)
    ctx.persist()
    # Maintain the volatile HBM mirror used by GETs.
    mirror_keys.write(ctx, base + loc, key)
    mirror_values.write(ctx, base + loc, value)
    touched.append(base + loc)


@vectorized_for(set_kernel)
def set_warp(wctx, keys, values, mirror_keys, mirror_values, batch_keys,
             batch_values, n_ops, n_sets, ways, log, touched):
    """Warp-vectorized SET batch (HCL logs only; see ``_run_set_batch``).

    Slot selection is the one sequential hazard: an earlier thread's insert
    can consume the empty way a later thread in the same warp would pick,
    so a warp with two lanes in one set walks its lanes in thread order
    over the *live* table view, applying each lane's key/value as it goes
    (reads metered through :meth:`~repro.gpu.warp.WarpContext.meter_loads`).
    Everything else - batch reads, undo-log insert, table stores, persists,
    mirror maintenance - runs as whole-warp vector batches.
    """
    sel = wctx.active(wctx.global_ids < n_ops)
    if sel.size == 0:
        return
    g = wctx.global_ids[sel]
    k = sel.size
    bkeys = batch_keys.read_warp(wctx, g, lanes=sel)
    bvals = batch_values.read_warp(wctx, g, lanes=sel)
    wctx.charge_ops(6 * k)  # hashing
    set_idxs = (hash64_vec(bkeys) % np.uint64(n_sets)).astype(np.int64)
    bases = set_idxs * ways
    wctx.meter_loads(keys.region, k, 8 * ways)   # the per-thread row read_vec
    wctx.meter_loads(values.region, k, 8)        # the per-thread old-value read
    keys_live = keys.np
    values_live = values.np
    base_list = bases.tolist()
    if len(set(base_list)) == k:
        # No two lanes share a set: selection is hazard-free, vectorize it.
        rows = keys_live[(bases[:, None] + np.arange(ways)).reshape(-1)]
        rows = rows.reshape(k, ways)
        # Per way: 2 for the key itself, 1 for an empty way; argmax takes
        # the first best way, as the scalar scans do.
        score = 2 * (rows == bkeys[:, None]) + (rows == 0)
        ways_chosen = score.argmax(axis=1)
        full = ~score.any(axis=1)
        if full.any():
            # No match and no empty way: evict a pseudo-random way.
            ways_chosen[full] = (
                hash64_vec(bkeys[full] ^ np.uint64(0x9E3779B97F4A7C15))
                % np.uint64(ways)).astype(np.int64)
        locs = bases + ways_chosen
        old_keys = keys_live[locs]
        old_values = values_live[locs]
    else:
        locs = np.empty(k, dtype=np.int64)
        ways_chosen = np.empty(k, dtype=np.int64)
        old_keys = np.empty(k, dtype=np.uint64)
        old_values = np.empty(k, dtype=np.uint64)
        key_list = bkeys.tolist()
        val_list = bvals.tolist()
        for j in range(k):
            key = key_list[j]
            base = base_list[j]
            row = keys_live[base:base + ways]
            loc = -1
            for w in range(ways):
                if int(row[w]) == key:
                    loc = w
                    break
            if loc < 0:
                for w in range(ways):
                    if int(row[w]) == 0:
                        loc = w
                        break
            if loc < 0:
                loc = hash64(key ^ 0x9E3779B97F4A7C15) % ways
            ways_chosen[j] = loc
            old_keys[j] = row[loc]
            old_values[j] = values_live[base + loc]
            keys_live[base + loc] = key
            values_live[base + loc] = val_list[j]
            locs[j] = base + loc
    if log is not None:
        log.insert_warp(wctx, _pack_entries(set_idxs, ways_chosen, old_keys,
                                            old_values), lanes=sel)
    keys.write_warp(wctx, locs, bkeys, lanes=sel)
    values.write_warp(wctx, locs, bvals, lanes=sel)
    wctx.persist(sel)
    mirror_keys.write_warp(wctx, locs, bkeys, lanes=sel)
    mirror_values.write_warp(wctx, locs, bvals, lanes=sel)
    touched.extend(locs.tolist())


def get_kernel(ctx, mirror_keys, mirror_values, batch_keys, out, n_ops, n_sets, ways):
    """One batched GET per thread, served from the HBM mirror."""
    i = ctx.global_id
    if i >= n_ops:
        return
    key = int(batch_keys.read(ctx, i))
    ctx.charge_ops(6)
    base = (hash64(key) % n_sets) * ways
    row = mirror_keys.read_vec(ctx, base, ways)
    value = 0
    for w in range(ways):
        if int(row[w]) == key:
            value = int(mirror_values.read(ctx, base + w))
            break
    out.write(ctx, i, value)


@vectorized_for(get_kernel)
def get_warp(wctx, mirror_keys, mirror_values, batch_keys, out, n_ops, n_sets, ways):
    """Warp-vectorized GET batch: pure reads of a static mirror, no hazards."""
    sel = wctx.active(wctx.global_ids < n_ops)
    if sel.size == 0:
        return
    g = wctx.global_ids[sel]
    k = sel.size
    bkeys = batch_keys.read_warp(wctx, g, lanes=sel)
    wctx.charge_ops(6 * k)
    bases = (hash64_vec(bkeys) % np.uint64(n_sets)).astype(np.int64) * ways
    rows = mirror_keys.read_vec_warp(wctx, bases, ways, lanes=sel)
    match = rows == bkeys[:, None]
    has = match.any(axis=1)
    value = np.zeros(k, dtype=np.uint64)
    if has.any():
        w = np.argmax(match, axis=1)  # first matching way, as the scalar scan
        value[has] = mirror_values.read_warp(
            wctx, bases[has] + w[has], lanes=sel[has]
        )
    out.write_warp(wctx, g, value, lanes=sel)


def delete_kernel(ctx, keys, values, mirror_keys, mirror_values, batch_keys,
                  n_ops, n_sets, ways, log, touched):
    """One batched DELETE per thread: log the pair, then zero the slot.

    Deletion is the SET of the empty sentinel; the same undo entry (old
    key + value at the found slot) makes it transactional with no new
    recovery logic - Fig. 6b's kernel restores deletes too.
    """
    i = ctx.global_id
    if i >= n_ops:
        return
    key = int(batch_keys.read(ctx, i))
    ctx.charge_ops(6)
    set_idx = hash64(key) % n_sets
    base = set_idx * ways
    row = keys.read_vec(ctx, base, ways)
    loc = -1
    for w in range(ways):
        if int(row[w]) == key:
            loc = w
            break
    if loc < 0:
        return  # absent keys: nothing to delete, nothing to log
    if log is not None:
        old_value = int(values.read(ctx, base + loc))
        gpmlog_insert(ctx, log, _pack_entry(set_idx, loc, key, old_value))
    keys.write(ctx, base + loc, 0)
    values.write(ctx, base + loc, 0)
    ctx.persist()
    if mirror_keys is not None:
        mirror_keys.write(ctx, base + loc, 0)
        mirror_values.write(ctx, base + loc, 0)
    touched.append(base + loc)


@vectorized_for(delete_kernel)
def delete_warp(wctx, keys, values, mirror_keys, mirror_values, batch_keys,
                n_ops, n_sets, ways, log, touched):
    """Warp-vectorized DELETE batch.

    Every active lane loads its key and its set's row; only lanes that find
    their key read the old value (when logging), log the pair, zero the
    slot and persist, as in :func:`delete_kernel`.  Lanes sharing a set are
    the one sequential hazard - a key repeated in the warp is gone by the
    time its second lane looks, so that lane logs nothing - and, as in
    :func:`set_warp`, such warps search lane by lane over the live table.
    """
    sel = wctx.active(wctx.global_ids < n_ops)
    if sel.size == 0:
        return
    g = wctx.global_ids[sel]
    k = sel.size
    bkeys = batch_keys.read_warp(wctx, g, lanes=sel)
    wctx.charge_ops(6 * k)  # hashing
    set_idxs = (hash64_vec(bkeys) % np.uint64(n_sets)).astype(np.int64)
    bases = set_idxs * ways
    wctx.meter_loads(keys.region, k, 8 * ways)  # the per-thread row read_vec
    keys_live = keys.np
    values_live = values.np
    base_list = bases.tolist()
    if len(set(base_list)) == k:
        # No two lanes share a set: the searches are independent.
        rows = keys_live[(bases[:, None] + np.arange(ways)).reshape(-1)]
        match = rows.reshape(k, ways) == bkeys[:, None]
        found = match.any(axis=1)
        locs = bases[found] + match.argmax(axis=1)[found]
        old_values = values_live[locs]
    else:
        found = np.zeros(k, dtype=bool)
        hit_locs: list[int] = []
        hit_values: list[int] = []
        for j, key in enumerate(bkeys.tolist()):
            base = base_list[j]
            hits = np.flatnonzero(keys_live[base:base + ways] == key)
            if hits.size:
                loc = base + int(hits[0])
                found[j] = True
                hit_locs.append(loc)
                hit_values.append(int(values_live[loc]))
                keys_live[loc] = 0
                values_live[loc] = 0
        locs = np.asarray(hit_locs, dtype=np.int64)
        old_values = np.asarray(hit_values, dtype=np.uint64)
    if not found.any():
        return  # absent keys: nothing to delete, nothing to log
    lanes = sel[found]
    n_found = lanes.size
    if log is not None:
        wctx.meter_loads(values.region, n_found, 8)  # the old-value read
        log.insert_warp(wctx, _pack_entries(set_idxs[found], locs - bases[found],
                                            bkeys[found], old_values),
                        lanes=lanes)
    zeros = np.zeros(n_found, dtype=np.uint64)
    keys.write_warp(wctx, locs, zeros, lanes=lanes)
    values.write_warp(wctx, locs, zeros, lanes=lanes)
    wctx.persist(lanes)
    if mirror_keys is not None:
        mirror_keys.write_warp(wctx, locs, zeros, lanes=lanes)
        mirror_values.write_warp(wctx, locs, zeros, lanes=lanes)
    touched.extend(locs.tolist())


def _recovery_kernel(ctx, keys, values, mirror_keys, mirror_values, log, ways, n_ops):
    i = ctx.global_id
    if i >= n_ops:
        return
    try:
        raw = gpmlog_read(ctx, log, LOG_ENTRY_BYTES)
    except LogEmpty:
        return
    set_idx, way, old_key, old_value = _unpack_entry(raw)
    loc = set_idx * ways + way
    keys.write(ctx, loc, old_key)
    values.write(ctx, loc, old_value)
    ctx.persist()
    if mirror_keys is not None:
        mirror_keys.write(ctx, loc, old_key)
        mirror_values.write(ctx, loc, old_value)
    gpmlog_remove(ctx, log, LOG_ENTRY_BYTES)


def persist_touched_pairs(table, values: DeviceArray, touched: list[int]) -> None:
    """Mode-appropriate post-kernel persistence of the updated pairs.

    ``touched`` holds the table slots a SET or DELETE kernel wrote (repeats
    allowed); each slot's key word and value word persist as 8-byte runs.
    """
    idx = (np.unique(np.asarray(touched, dtype=np.int64)) if touched
           else np.array([], dtype=np.int64))
    starts = np.concatenate([idx * 8, values.offset + idx * 8])
    table.persist_segments(starts, np.full(starts.size, 8, dtype=np.int64))


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------


@dataclass
class KvsConfig:
    """Scaled-down gpKVS parameters (paper values in comments)."""

    n_sets: int = 8192          # paper: tens of millions of pairs
    ways: int = 8               # MegaKV's 8-way set-associativity
    batch_size: int = 640       # paper: 2M SETs per batch
    set_batches: int = 4        # paper: 25
    get_batches: int = 0        # used by the 95:5 variant
    get_batch_size: int = 0
    block_dim: int = 128
    seed: int = 7
    use_hcl: bool = True        # False -> conventional log (Fig. 11a)
    log_partitions: int = 64


class GpKvs(CrashConsistent):
    """The gpKVS workload runner."""

    name = "gpKVS"
    category = Category.TRANSACTIONAL
    fine_grained = True
    paper_data_bytes = 4_100_000_000  # Table 1: 4.1 GB

    def __init__(self, config: KvsConfig | None = None) -> None:
        self.config = config or KvsConfig()

    @classmethod
    def mixed_95_5(cls) -> "GpKvs":
        """The gpKVS (95:5) variant: 95% GETs, 5% SETs."""
        w = cls(KvsConfig(set_batches=1, batch_size=640,
                          get_batches=4, get_batch_size=3040))
        w.name = "gpKVS (95:5)"
        return w

    # -- setup -----------------------------------------------------------------

    def _table_bytes(self) -> int:
        return self.config.n_sets * self.config.ways * 8 * 2

    def _grid(self, n_ops: int) -> int:
        return (n_ops + self.config.block_dim - 1) // self.config.block_dim

    def _make_log(self, driver: ModeDriver, n_ops: int):
        cfg = self.config
        if not driver.mode.data_on_pm:
            return None  # CAP has no logging (Section 6.1)
        if cfg.use_hcl:
            capacity = self._grid(n_ops) * cfg.block_dim * 64 * 4 + (1 << 16)
            return gpmlog_create_hcl(driver.system, "/pm/gpkvs.log", capacity,
                                     self._grid(n_ops), cfg.block_dim)
        capacity = max(4 << 20, n_ops * 64 * cfg.log_partitions)
        return gpmlog_create_conv(driver.system, "/pm/gpkvs.log", capacity,
                                  cfg.log_partitions)

    def _batches(self):
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        n_pairs = cfg.n_sets * cfg.ways
        for _ in range(cfg.set_batches):
            # Keys are unique within a batch: MegaKV's batching pipeline
            # compacts SETs to the same key before the kernel (two same-key
            # SETs in one batch would make per-thread undo order-dependent).
            keys = rng.choice(np.arange(1, n_pairs * 4, dtype=np.uint64),
                              size=cfg.batch_size, replace=False)
            vals = rng.integers(1, _MASK64, size=cfg.batch_size, dtype=np.uint64)
            yield keys, vals

    # -- execution ----------------------------------------------------------------

    def run(self, mode: Mode, system=None, crash_injector=None) -> RunResult:
        """Run the batched workload under ``mode`` and report throughput.

        With a ``crash_injector`` armed, a batch may die mid-kernel; the
        raised :class:`~repro.sim.crash.SimulatedCrash` propagates to the
        caller (see :meth:`recover`).
        """
        cfg = self.config
        system = system or make_system(mode)
        driver = ModeDriver(system, mode)
        table = driver.buffer("/pm/gpkvs.table", self._table_bytes(),
                              fine_grained=True, paper_bytes=self.paper_data_bytes)
        n_pairs = cfg.n_sets * cfg.ways
        keys = table.array(np.uint64, 0, n_pairs)
        values = table.array(np.uint64, n_pairs * 8, n_pairs)
        machine = system.machine
        mirror = machine.alloc_hbm("gpkvs.mirror", self._table_bytes())
        mirror_keys_arr = DeviceArray(mirror, np.uint64, 0, n_pairs)
        mirror_values_arr = DeviceArray(mirror, np.uint64, n_pairs * 8, n_pairs)
        log = self._make_log(driver, cfg.batch_size)
        flag = (TransactionFlag.create(system, "/pm/gpkvs.flag")
                if driver.mode.data_on_pm else None)
        self._state = (system, driver, table, keys, values,
                       mirror_keys_arr, mirror_values_arr, log, flag)

        def op_phase():
            total_ops = 0
            for batch_keys_np, batch_vals_np in self._batches():
                total_ops += self._run_set_batch(
                    driver, table, keys, values, mirror_keys_arr, mirror_values_arr,
                    log, flag, batch_keys_np, batch_vals_np, crash_injector,
                )
            total_ops += self._run_get_batches(driver, mirror_keys_arr, mirror_values_arr)
            return total_ops

        total_ops, window = measure(system, op_phase)
        throughput = total_ops / window.elapsed if window.elapsed else 0.0
        return RunResult(
            workload=self.name, mode=mode, elapsed=window.elapsed, window=window,
            extras={"ops": total_ops, "throughput_ops_per_s": throughput},
        )

    def _run_set_batch(self, driver, table, keys, values, mirror_keys, mirror_values,
                       log, flag, batch_keys_np, batch_vals_np, crash_injector):
        cfg = self.config
        system = driver.system
        n_ops = batch_keys_np.size
        hbm_in = system.machine.alloc_hbm(
            f"gpkvs.batch{system.stats.kernels_launched}", n_ops * 16
        )
        bk = DeviceArray(hbm_in, np.uint64, 0, n_ops)
        bv = DeviceArray(hbm_in, np.uint64, n_ops * 8, n_ops)
        bk.np[:] = batch_keys_np
        bv.np[:] = batch_vals_np
        touched: list[int] = []
        if flag is not None:
            flag.begin()
        driver.persist_phase_begin()
        # The conventional-log ablation (Fig. 11a) serialises threads on
        # partition locks - per-thread interleaving is its whole point, so
        # it keeps the reference interpreter.
        conventional = log is not None and not isinstance(log, HclLog)
        try:
            with scalar_lane() if conventional else nullcontext():
                result = system.gpu.launch(
                    set_kernel, self._grid(n_ops), cfg.block_dim,
                    (keys, values, mirror_keys, mirror_values, bk, bv, n_ops,
                     cfg.n_sets, cfg.ways, log, touched),
                    crash_injector=crash_injector,
                )
            self._last_lane = result.lane
        finally:
            driver.persist_phase_end()
        persist_touched_pairs(table, values, touched)
        if flag is not None:
            flag.commit()
            gpmlog_clear(log)
        system.machine.free(hbm_in)
        return n_ops

    def _run_get_batches(self, driver, mirror_keys, mirror_values):
        cfg = self.config
        if cfg.get_batches == 0:
            return 0
        system = driver.system
        rng = np.random.default_rng(cfg.seed + 1)
        total = 0
        for b in range(cfg.get_batches):
            n_ops = cfg.get_batch_size
            hbm = system.machine.alloc_hbm(f"gpkvs.get{b}", n_ops * 16)
            bk = DeviceArray(hbm, np.uint64, 0, n_ops)
            out = DeviceArray(hbm, np.uint64, n_ops * 8, n_ops)
            bk.np[:] = rng.integers(1, cfg.n_sets * cfg.ways * 4, size=n_ops, dtype=np.uint64)
            system.gpu.launch(
                get_kernel, self._grid(n_ops), cfg.block_dim,
                (mirror_keys, mirror_values, bk, out, n_ops, cfg.n_sets, cfg.ways),
            )
            system.machine.free(hbm)
            total += n_ops
        return total

    def delete_batch(self, delete_keys, crash_injector=None) -> int:
        """Transactionally delete a batch of keys (call after :meth:`run`).

        Uses the same undo log / flag protocol as SETs; a crash mid-batch
        is undone by :meth:`recover`.  Returns how many keys were present.
        """
        (system, driver, table, keys, values,
         mirror_keys, mirror_values, log, flag) = self._state
        cfg = self.config
        delete_keys = np.asarray(delete_keys, dtype=np.uint64)
        if delete_keys.size > cfg.batch_size:
            raise ValueError(
                f"delete batch of {delete_keys.size} exceeds the log geometry "
                f"({cfg.batch_size})"
            )
        n_ops = delete_keys.size
        hbm = system.machine.alloc_hbm(
            f"gpkvs.del{system.stats.kernels_launched}", n_ops * 8
        )
        bk = DeviceArray(hbm, np.uint64, 0, n_ops)
        bk.np[:] = delete_keys
        present_before = sum(
            1 for k in delete_keys.tolist()
            if int(k) in keys.np[(hash64(int(k)) % cfg.n_sets) * cfg.ways:
                                 (hash64(int(k)) % cfg.n_sets) * cfg.ways + cfg.ways]
        )
        touched: list[int] = []
        if flag is not None:
            flag.begin()
        driver.persist_phase_begin()
        try:
            system.gpu.launch(
                delete_kernel, self._grid(n_ops), cfg.block_dim,
                (keys, values, mirror_keys, mirror_values, bk, n_ops,
                 cfg.n_sets, cfg.ways, log, touched),
                crash_injector=crash_injector,
            )
        finally:
            driver.persist_phase_end()
        persist_touched_pairs(table, values, touched)
        if flag is not None:
            flag.commit()
            gpmlog_clear(log)
        system.machine.free(hbm)
        return present_before

    # -- crash invariants -----------------------------------------------------------

    def apply_batch_reference(self, keys_np: np.ndarray, values_np: np.ndarray,
                              batch_keys, batch_vals) -> None:
        """Apply one SET batch to host-side table arrays, in place.

        Mirrors :func:`set_kernel`'s slot choice exactly (match, then first
        empty way, then pseudo-random eviction) in thread order, which is
        the engine's deterministic execution order - so committed batches
        replayed through this function predict the durable table bit for
        bit.  Used by the crash checker to compute per-batch reference
        snapshots.
        """
        cfg = self.config
        for key, value in zip(batch_keys.tolist(), batch_vals.tolist()):
            base = (hash64(int(key)) % cfg.n_sets) * cfg.ways
            row = keys_np[base:base + cfg.ways]
            loc = -1
            for w in range(cfg.ways):
                if int(row[w]) == key:
                    loc = w
                    break
            if loc < 0:
                for w in range(cfg.ways):
                    if int(row[w]) == 0:
                        loc = w
                        break
            if loc < 0:
                loc = hash64(int(key) ^ 0x9E3779B97F4A7C15) % cfg.ways
            keys_np[base + loc] = key
            values_np[base + loc] = value

    def declare_invariants(self, system) -> list:
        """Structural gpKVS invariants over the recovered store."""

        def flag_idle() -> tuple[bool, str]:
            if not system.fs.exists("/pm/gpkvs.flag"):
                return True, "crash predates the transaction flag"
            flag = TransactionFlag.open(system, "/pm/gpkvs.flag")
            if flag.active:
                return False, "transaction flag still active after recovery"
            return True, "transaction flag idle"

        def table_intact() -> tuple[bool, str]:
            # Keys and values pair up: a durable key slot never has its
            # value torn away (each SET persists both words in one epoch).
            if not system.fs.exists("/pm/gpkvs.table"):
                return True, "crash predates the table"
            from ..core.mapping import gpm_map

            cfg = self.config
            n_pairs = cfg.n_sets * cfg.ways
            table = gpm_map(system, "/pm/gpkvs.table")
            keys = table.region.persisted_view(np.uint64, 0, n_pairs)
            values = table.region.persisted_view(np.uint64, n_pairs * 8, n_pairs)
            torn = np.flatnonzero((keys != 0) & (values == 0))
            if torn.size:
                return False, f"{torn.size} slots have a key but no value"
            return True, "no torn key/value slots"

        return [
            ("kvs-flag-idle",
             "the batch transaction flag is idle after recovery", flag_idle),
            ("kvs-table-intact",
             "durable keys always carry their durable values", table_intact),
        ]

    # -- recovery -------------------------------------------------------------------

    def recover(self, system, mode: Mode) -> float:
        """Post-crash recovery: undo the interrupted batch from the logs.

        Must be called on the *same system* after a crash during
        :meth:`run`.  Returns the restoration latency in simulated seconds.
        """
        from ..core.logging import gpmlog_open
        from ..core.mapping import gpm_map

        cfg = self.config
        start = system.clock.now
        flag = TransactionFlag.open(system, "/pm/gpkvs.flag")
        log = gpmlog_open(system, "/pm/gpkvs.log")
        table = gpm_map(system, "/pm/gpkvs.table")
        n_pairs = cfg.n_sets * cfg.ways
        keys = table.array(np.uint64, 0, n_pairs)
        values = table.array(np.uint64, n_pairs * 8, n_pairs)
        if flag.active:
            driver = ModeDriver(system, mode)
            driver.persist_phase_begin()
            try:
                system.gpu.launch(
                    _recovery_kernel, self._grid(cfg.batch_size), cfg.block_dim,
                    (keys, values, None, None, log, cfg.ways, cfg.batch_size),
                )
            finally:
                driver.persist_phase_end()
            flag.commit()
        gpmlog_clear(log)
        return system.clock.now - start
