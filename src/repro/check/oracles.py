"""Concrete crash oracles for the check targets.

Each oracle runs a scaled-down configuration of its target - small enough
that replaying to hundreds of frontiers stays fast, large enough that every
frontier kind (fences, warp drains, Optane epochs, persist windows,
checkpoint marks, unfenced thread windows) appears in the reference run.
Reference state the invariants compare against (committed table prefixes,
checkpointed parameter vectors) is computed once per process and cached.

``broken-demo`` is the deliberately buggy target: an append ring whose
kernel persists the commit sentinel *before* the payload it guards (the
ordering fence is on the wrong side).  Thread-count injection can never
catch it - the whole warp's rounds are lost together - but the warp-drain
event frontier between the two persist rounds exposes a committed-but-torn
record, which is exactly the class of bug systematic exploration exists
to find.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..core.mapping import gpm_map
from ..core.persist import persist_window
from ..gpu.memory import DeviceArray
from ..pstruct import PersistentHashMap, PersistentRing
from ..workloads.base import Mode
from ..workloads.db import _META_BYTES, ROW_COLUMNS, DbConfig, GpDb
from ..workloads.dnn import DnnTraining
from ..workloads.kvs import GpKvs, KvsConfig, hash64
from ..workloads.lenet import LeNet, synthetic_mnist
from ..workloads.prefix_sum import PrefixSum, PrefixSumConfig
from .oracle import CrashOracle, RunObservation

# ---------------------------------------------------------------------------
# prefix sum
# ---------------------------------------------------------------------------

_PS_CONFIG = dict(n=1024, block_dim=128, arrays=1, seed=31)


class PrefixSumOracle(CrashOracle):
    """Fig. 8's native-persistence scan under systematic crashes."""

    name = "prefix_sum"
    #: the sentinel protocol's guarantees survive under epoch persistency
    #: (the barrier doubles as an epoch boundary) and under the adaptive
    #: data path (staged writes are volatile, like pre-fence stores) - the
    #: invariants hold verbatim for those models too.
    modes = (Mode.GPM, Mode.GPM_EPOCH, Mode.GPM_ADAPTIVE)
    supports_thread_injection = True

    def execute(self, system, mode: Mode, injector) -> None:
        PrefixSum(PrefixSumConfig(**_PS_CONFIG)).run(
            mode, system=system, crash_injector=injector)

    def attach(self, system, mode: Mode) -> None:
        self._workload = PrefixSum(PrefixSumConfig(**_PS_CONFIG))

    def declare_invariants(self, system, mode: Mode,
                           observation: RunObservation) -> list:
        return self._workload.declare_invariants(system)


# ---------------------------------------------------------------------------
# gpKVS
# ---------------------------------------------------------------------------

#: ``n_sets`` is sized so no set ever fills across the batches: an eviction
#: would let two ops of one batch collide on a slot, and per-thread undo is
#: order-dependent under collisions - a regime the gpKVS protocol excludes
#: (the paper-scale table never fills a set; same-key SETs are compacted
#: away before the kernel for the same reason).
_KVS_CONFIG = dict(n_sets=256, ways=8, batch_size=96, set_batches=3,
                   block_dim=32, seed=7, use_hcl=True)


@lru_cache(maxsize=1)
def _kvs_reference_prefixes() -> tuple:
    """Durable table snapshots after 0, 1, ... committed SET batches."""
    cfg = KvsConfig(**_KVS_CONFIG)
    w = GpKvs(cfg)
    n_pairs = cfg.n_sets * cfg.ways
    keys = np.zeros(n_pairs, dtype=np.uint64)
    values = np.zeros(n_pairs, dtype=np.uint64)
    snapshots = [(keys.copy(), values.copy())]
    batches = []
    for batch_keys, batch_vals in w._batches():
        w.apply_batch_reference(keys, values, batch_keys, batch_vals)
        snapshots.append((keys.copy(), values.copy()))
        batches.append((batch_keys, batch_vals))
    return tuple(snapshots), tuple(batches)


def _register_kvs_recovery(manager, workload: GpKvs, mode: Mode) -> None:
    """Fig. 6b's application recovery for a gpKVS run.

    The undo kernel must run before the generic rules would otherwise
    truncate the evidence.  One handler claims all three gpKVS files;
    recovery itself runs once.
    """
    state = {"done": False}

    def recover_kvs(sys_, file_report) -> float:
        if state["done"]:
            return 0.0
        state["done"] = True
        # A crash during setup can predate the flag or log files; with no
        # batch ever begun there is nothing to undo.
        for path in ("/pm/gpkvs.flag", "/pm/gpkvs.log", "/pm/gpkvs.table"):
            if not sys_.fs.exists(path):
                return 0.0
        return workload.recover(sys_, mode)

    manager.register_handler("/pm/gpkvs", recover_kvs)


class KvsOracle(CrashOracle):
    """gpKVS batched SETs: atomicity and get-after-committed-put."""

    name = "kvs"
    #: log-before-table ordering holds under epoch persistency because the
    #: two fences sit in one epoch whose drain preserves per-round region
    #: program order, and under the adaptive path because a region's staged
    #: backlog flushes before any direct write to it.
    modes = (Mode.GPM, Mode.GPM_EPOCH, Mode.GPM_ADAPTIVE)
    supports_thread_injection = True

    def execute(self, system, mode: Mode, injector) -> None:
        GpKvs(KvsConfig(**_KVS_CONFIG)).run(mode, system=system,
                                            crash_injector=injector)

    def attach(self, system, mode: Mode) -> None:
        self._workload = GpKvs(KvsConfig(**_KVS_CONFIG))

    def register_recovery_handlers(self, manager, system, mode: Mode) -> None:
        _register_kvs_recovery(manager, self._workload, mode)

    def declare_invariants(self, system, mode: Mode,
                           observation: RunObservation) -> list:
        cfg = self._workload.config
        checks = list(self._workload.declare_invariants(system))
        matched: dict[str, int | None] = {"prefix": None}

        def batch_atomicity() -> tuple[bool, str]:
            if not system.fs.exists("/pm/gpkvs.table"):
                matched["prefix"] = 0
                return True, "crash predates the table"
            snapshots, _batches = _kvs_reference_prefixes()
            n_pairs = cfg.n_sets * cfg.ways
            table = gpm_map(system, "/pm/gpkvs.table")
            keys = table.region.persisted_view(np.uint64, 0, n_pairs)
            values = table.region.persisted_view(np.uint64, n_pairs * 8, n_pairs)
            for k, (ref_keys, ref_vals) in enumerate(snapshots):
                if np.array_equal(keys, ref_keys) and np.array_equal(values, ref_vals):
                    matched["prefix"] = k
                    return True, f"table is exactly the {k}-batch prefix state"
            return False, ("recovered table matches no committed-batch "
                           "prefix: a batch was applied partially")

        def get_after_committed_put() -> tuple[bool, str]:
            k = matched["prefix"]
            if not k:  # no committed batch (or atomicity already failed)
                return True, "no committed batch to look up"
            snapshots, batches = _kvs_reference_prefixes()
            ref_keys, ref_vals = snapshots[k]
            n_pairs = cfg.n_sets * cfg.ways
            table = gpm_map(system, "/pm/gpkvs.table")
            keys = table.region.persisted_view(np.uint64, 0, n_pairs)
            values = table.region.persisted_view(np.uint64, n_pairs * 8, n_pairs)
            batch_keys, batch_vals = batches[k - 1]
            misses = 0
            for key, value in zip(batch_keys.tolist(), batch_vals.tolist()):
                base = (hash64(int(key)) % cfg.n_sets) * cfg.ways
                ref_row = ref_keys[base:base + cfg.ways]
                if int(key) not in ref_row:
                    continue  # evicted within the committed prefix
                got = None
                for w in range(cfg.ways):
                    if int(keys[base + w]) == key:
                        got = int(values[base + w])
                        break
                expect = int(ref_vals[base + int(np.flatnonzero(
                    ref_row == key)[0])])
                if got != expect:
                    misses += 1
            if misses:
                return False, (f"{misses} committed puts of batch {k - 1} "
                               "not readable after recovery")
            return True, f"every committed put of batch {k - 1} is readable"

        checks.append(("kvs-batch-atomicity",
                       "the recovered table is a committed-batch prefix",
                       batch_atomicity))
        checks.append(("kvs-get-after-committed-put",
                       "puts of the last committed batch stay readable",
                       get_after_committed_put))
        return checks


#: DELETE batches layered on the committed SET state: how many, and how
#: many guaranteed-absent keys each carries (absent keys exercise the
#: kernel's no-log early return - their threads must contribute nothing to
#: the undo log a crash replays).
_KVS_DELETE_BATCHES = 2
_KVS_DELETE_ABSENT = 8


@lru_cache(maxsize=1)
def _kvs_delete_batches() -> tuple:
    """Deterministic DELETE batches over the committed SET state.

    Each batch mixes keys drawn (uniquely - per-thread undo is
    order-dependent under collisions) from one reference SET batch with a
    run of keys above the SET key range, which are guaranteed absent.
    """
    cfg = KvsConfig(**_KVS_CONFIG)
    _snapshots, batches = _kvs_reference_prefixes()
    n_pairs = cfg.n_sets * cfg.ways
    rng = np.random.default_rng(cfg.seed + 17)
    out = []
    for b in range(_KVS_DELETE_BATCHES):
        src_keys, _vals = batches[b % len(batches)]
        present = rng.choice(src_keys, size=cfg.batch_size - _KVS_DELETE_ABSENT,
                             replace=False)
        absent = np.arange(n_pairs * 4 + b * _KVS_DELETE_ABSENT,
                           n_pairs * 4 + (b + 1) * _KVS_DELETE_ABSENT,
                           dtype=np.uint64)
        out.append(np.concatenate([present, absent]))
    return tuple(out)


@lru_cache(maxsize=1)
def _kvs_delete_reference_prefixes() -> tuple:
    """Durable table snapshots across the SET batches, then each DELETE.

    Extends :func:`_kvs_reference_prefixes`'s chain: the host replay of
    :func:`~repro.workloads.kvs.delete_kernel` finds each key's way and
    zeroes both words (absent keys are no-ops), so a recovered table must
    equal exactly one link of the combined chain.
    """
    cfg = KvsConfig(**_KVS_CONFIG)
    snapshots, _batches = _kvs_reference_prefixes()
    keys, values = (a.copy() for a in snapshots[-1])
    chain = list(snapshots)
    for batch in _kvs_delete_batches():
        for key in batch.tolist():
            base = (hash64(int(key)) % cfg.n_sets) * cfg.ways
            for w in range(cfg.ways):
                if int(keys[base + w]) == key:
                    keys[base + w] = 0
                    values[base + w] = 0
                    break
        chain.append((keys.copy(), values.copy()))
    return tuple(chain)


class KvsDeleteOracle(CrashOracle):
    """gpKVS batched DELETEs: tombstone-free removal under the undo log.

    Deletion is the SET of the empty sentinel - the same per-thread undo
    entry (old key + value) makes Fig. 6b's recovery kernel restore
    deletes with no new logic.  This oracle pins that claim under crashes:
    it runs the SET workload to completion, then issues DELETE batches
    through the same flag/log protocol and checks the recovered table is
    always a whole-batch prefix of the combined SET + DELETE chain.
    """

    name = "kvs-delete"
    #: same ordering argument as :class:`KvsOracle` - DELETE uses the
    #: identical log-then-write fence placement.
    modes = (Mode.GPM, Mode.GPM_EPOCH, Mode.GPM_ADAPTIVE)
    supports_thread_injection = True

    def execute(self, system, mode: Mode, injector) -> None:
        workload = GpKvs(KvsConfig(**_KVS_CONFIG))
        workload.run(mode, system=system, crash_injector=injector)
        for batch in _kvs_delete_batches():
            workload.delete_batch(batch, crash_injector=injector)

    def attach(self, system, mode: Mode) -> None:
        self._workload = GpKvs(KvsConfig(**_KVS_CONFIG))

    def register_recovery_handlers(self, manager, system, mode: Mode) -> None:
        # The undo kernel is op-agnostic: DELETEs recover like SETs.
        _register_kvs_recovery(manager, self._workload, mode)

    def declare_invariants(self, system, mode: Mode,
                           observation: RunObservation) -> list:
        cfg = self._workload.config
        checks = list(self._workload.declare_invariants(system))
        matched: dict[str, int | None] = {"prefix": None}

        def delete_atomicity() -> tuple[bool, str]:
            if not system.fs.exists("/pm/gpkvs.table"):
                matched["prefix"] = 0
                return True, "crash predates the table"
            chain = _kvs_delete_reference_prefixes()
            n_pairs = cfg.n_sets * cfg.ways
            table = gpm_map(system, "/pm/gpkvs.table")
            keys = table.region.persisted_view(np.uint64, 0, n_pairs)
            values = table.region.persisted_view(np.uint64, n_pairs * 8, n_pairs)
            for k, (ref_keys, ref_vals) in enumerate(chain):
                if np.array_equal(keys, ref_keys) and np.array_equal(values, ref_vals):
                    matched["prefix"] = k
                    return True, f"table is exactly the {k}-batch prefix state"
            return False, ("recovered table matches no committed-batch "
                           "prefix: a DELETE batch was applied partially")

        def absent_after_committed_delete() -> tuple[bool, str]:
            k = matched["prefix"]
            if k is None or k <= cfg.set_batches:
                return True, "no committed DELETE batch to probe"
            batch = _kvs_delete_batches()[k - cfg.set_batches - 1]
            n_pairs = cfg.n_sets * cfg.ways
            table = gpm_map(system, "/pm/gpkvs.table")
            keys = table.region.persisted_view(np.uint64, 0, n_pairs)
            lingering = 0
            for key in batch.tolist():
                base = (hash64(int(key)) % cfg.n_sets) * cfg.ways
                if int(key) in keys[base:base + cfg.ways]:
                    lingering += 1
            if lingering:
                return False, (f"{lingering} keys of committed DELETE batch "
                               f"{k - cfg.set_batches - 1} still present")
            return True, (f"every key of DELETE batch "
                          f"{k - cfg.set_batches - 1} is gone")

        checks.append(("kvs-delete-atomicity",
                       "the recovered table is a committed-batch prefix of "
                       "the SET + DELETE chain", delete_atomicity))
        checks.append(("kvs-delete-absent-after-commit",
                       "keys of the last committed DELETE batch stay absent",
                       absent_after_committed_delete))
        return checks


# ---------------------------------------------------------------------------
# gpDB UPDATE
# ---------------------------------------------------------------------------

#: ``initial_rows`` is a power of two, so the Fibonacci-stride row selection
#: is collision-free within a batch (the constant is odd, hence invertible
#: modulo any power of two) - per-thread undo stays order-independent, the
#: regime gpDB's batching assumes.  Updates run on the warp lane when no
#: injector is armed, so the recovery kernel's warp form (batched HCL
#: ``read_warp``/``remove_warp``) is what this oracle replays under crashes.
_DB_CONFIG = dict(capacity_rows=512, initial_rows=256, update_batch=64,
                  update_batches=2, block_dim=32, seed=11, use_hcl=True)


@lru_cache(maxsize=1)
def _db_reference_prefixes() -> tuple:
    """Durable table images after 0, 1, ... committed UPDATE batches.

    A host replay of :func:`~repro.workloads.db.update_kernel`'s row
    selection and two-column write; UPDATEs never change the row count, so
    every link uses the same ``initial_rows`` modulus.
    """
    cfg = DbConfig(**_DB_CONFIG)
    rng = np.random.default_rng(cfg.seed)
    table = np.zeros(cfg.capacity_rows * ROW_COLUMNS, dtype=np.uint64)
    init = rng.integers(1, 1 << 63, size=cfg.initial_rows * ROW_COLUMNS,
                        dtype=np.uint64)
    table[: init.size] = init
    snapshots = [table.copy()]
    for b in range(cfg.update_batches):
        seed = cfg.seed + 100 + b
        h = hash64(seed)
        for i in range(cfg.update_batch):
            row = (h + i * 2654435761) % cfg.initial_rows
            new_val = np.uint64(hash64(seed + i) or 1)
            table[row * ROW_COLUMNS + 2] = new_val
            table[row * ROW_COLUMNS + 5] = new_val ^ np.uint64(0xFF)
        snapshots.append(table.copy())
    return tuple(snapshots)


class DbUpdateOracle(CrashOracle):
    """gpDB batched UPDATEs: HCL undo logging makes batches atomic."""

    name = "db-update"
    #: log-before-table ordering holds under epoch persistency (both fences
    #: share one epoch whose drain preserves per-round program order) and
    #: under the adaptive path (a region's staged backlog flushes before
    #: any direct write) - the same argument as :class:`KvsOracle`.
    modes = (Mode.GPM, Mode.GPM_EPOCH, Mode.GPM_ADAPTIVE)
    supports_thread_injection = True

    def execute(self, system, mode: Mode, injector) -> None:
        GpDb("update", DbConfig(**_DB_CONFIG)).run(mode, system=system,
                                                   crash_injector=injector)

    def attach(self, system, mode: Mode) -> None:
        self._workload = GpDb("update", DbConfig(**_DB_CONFIG))

    def register_recovery_handlers(self, manager, system, mode: Mode) -> None:
        # The undo kernel must run before the generic rules truncate the
        # HCL log; one handler claims all the gpDB files.
        state = {"done": False}
        workload = self._workload

        def recover_db(sys_, file_report) -> float:
            if state["done"]:
                return 0.0
            state["done"] = True
            # The transaction flag is created only after the table's setup
            # image is durably persisted; without it nothing was begun.
            for path in ("/pm/gpdb.flag", "/pm/gpdb.log", "/pm/gpdb.table"):
                if not sys_.fs.exists(path):
                    return 0.0
            return workload.recover(sys_, mode)

        manager.register_handler("/pm/gpdb", recover_db)

    def declare_invariants(self, system, mode: Mode,
                           observation: RunObservation) -> list:
        cfg = self._workload.config
        matched: dict[str, int | None] = {"prefix": None}

        def batch_atomicity() -> tuple[bool, str]:
            if not system.fs.exists("/pm/gpdb.flag"):
                # Setup's full-table persist strictly precedes flag
                # creation, so no transaction ever began.
                matched["prefix"] = 0
                return True, "crash predates the transaction flag"
            table = gpm_map(system, "/pm/gpdb.table")
            rows = table.region.persisted_view(np.uint64, _META_BYTES,
                                               cfg.capacity_rows * ROW_COLUMNS)
            for k, ref in enumerate(_db_reference_prefixes()):
                if np.array_equal(rows, ref):
                    matched["prefix"] = k
                    return True, f"table is exactly the {k}-batch prefix state"
            return False, ("recovered table matches no committed-batch "
                           "prefix: an UPDATE batch was applied partially")

        def row_count_stable() -> tuple[bool, str]:
            if not system.fs.exists("/pm/gpdb.flag"):
                return True, "crash predates the transaction flag"
            table = gpm_map(system, "/pm/gpdb.table")
            count = int(table.region.persisted_view(np.uint64, 0, 1)[0])
            if count != cfg.initial_rows:
                return False, (f"durable row count {count} != "
                               f"{cfg.initial_rows}: UPDATEs changed the count")
            return True, f"durable row count stays {count}"

        return [
            ("db-update-atomicity",
             "the recovered table is a committed-batch prefix",
             batch_atomicity),
            ("db-update-count-stable",
             "UPDATE batches never move the durable row count",
             row_count_stable),
        ]


# ---------------------------------------------------------------------------
# checkpointed DNN
# ---------------------------------------------------------------------------

_DNN_CONFIG = dict(batch_size=8, dataset_size=64, passes_per_iteration=1, seed=5)
_DNN_ITERATIONS = 12
_DNN_EVERY = 2


@lru_cache(maxsize=1)
def _dnn_reference_params() -> tuple:
    """Packed parameter vectors at each checkpoint epoch (0 = untrained).

    The training math is a pure function of the seed (the simulated system
    only charges time), so the reference is computed without a machine.
    """
    cfg = _DNN_CONFIG
    net = LeNet(seed=cfg["seed"])
    images, labels = synthetic_mnist(cfg["dataset_size"], seed=cfg["seed"],
                                     size=LeNet.IMAGE_SIZE)
    rng = np.random.default_rng(cfg["seed"])
    epochs = [np.zeros(net.params.total_bytes // 4, dtype=np.float32)]
    for i in range(_DNN_ITERATIONS):
        for _ in range(cfg["passes_per_iteration"]):
            idx = rng.integers(0, cfg["dataset_size"], size=cfg["batch_size"])
            net.train_step(images[idx], labels[idx])
        if (i + 1) % _DNN_EVERY == 0:
            epochs.append(net.params.pack().astype(np.float32).copy())
    return tuple(epochs)


class CheckpointedDnnOracle(CrashOracle):
    """gpmcp double-buffered checkpoints: epoch monotonicity on restore."""

    name = "checkpointed-dnn"
    modes = (Mode.GPM,)
    #: ``CheckpointedWorkload.run`` takes no injector; event frontiers need
    #: none, which is the point of arming on the bus.
    supports_thread_injection = False

    def execute(self, system, mode: Mode, injector) -> None:
        workload = DnnTraining(**_DNN_CONFIG)
        workload.iterations = _DNN_ITERATIONS
        workload.checkpoint_every = _DNN_EVERY
        workload.run(mode, system=system)

    def attach(self, system, mode: Mode) -> None:
        # Restoring needs only the seed: the checkpoint is on PM.
        self._workload = DnnTraining(**_DNN_CONFIG)

    def declare_invariants(self, system, mode: Mode,
                           observation: RunObservation) -> list:
        checks = list(self._workload.declare_invariants(system))
        started = observation.checkpoints_started

        def restores_committed_epoch() -> tuple[bool, str]:
            if not system.fs.exists("/pm/dnn.cp"):
                return True, "crash predates the checkpoint file"
            net = self._workload.restore_into_new_net(system, mode)
            restored = net.params.pack().astype(np.float32)
            epochs = _dnn_reference_params()
            matched = None
            for c, ref in enumerate(epochs):
                if np.array_equal(restored, ref):
                    matched = c
                    break
            if matched is None:
                return False, "restored parameters match no checkpoint epoch"
            # Monotonicity: a checkpoint that *started* may or may not have
            # committed, but nothing older than the previous one may win.
            if matched < started - 1 or matched > started:
                return False, (f"restored epoch {matched} but {started} "
                               "checkpoints had started: epoch went backwards")
            return True, (f"restored epoch {matched} with {started} started: "
                          "monotone")

        checks.append(("dnn-restores-committed-epoch",
                       "restore yields the newest committed epoch, "
                       "never a torn or stale one",
                       restores_committed_epoch))
        return checks


# ---------------------------------------------------------------------------
# pstruct: hashmap
# ---------------------------------------------------------------------------

_PMAP_PATH = "/pm/checkmap"
_PMAP_CAPACITY = 512
_PMAP_BATCHES = 3
_PMAP_BATCH = 48
_PMAP_SEED = 11


@lru_cache(maxsize=1)
def _pmap_batches() -> tuple:
    rng = np.random.default_rng(_PMAP_SEED)
    batches = []
    for _ in range(_PMAP_BATCHES):
        keys = rng.choice(np.arange(1, _PMAP_CAPACITY * 4, dtype=np.uint64),
                          size=_PMAP_BATCH, replace=False)
        vals = rng.integers(1, 1 << 63, size=_PMAP_BATCH, dtype=np.uint64)
        batches.append((keys, vals))
    return tuple(batches)


@lru_cache(maxsize=1)
def _pmap_reference_prefixes() -> tuple:
    """Host replay of ``_insert_kernel``'s slot choice, per batch prefix."""
    from ..pstruct.hashmap import WAYS

    n_sets = max(1, -(-_PMAP_CAPACITY // WAYS))
    keys = np.zeros(n_sets * WAYS, dtype=np.uint64)
    values = np.zeros(n_sets * WAYS, dtype=np.uint64)
    snapshots = [(keys.copy(), values.copy())]
    for batch_keys, batch_vals in _pmap_batches():
        for key, value in zip(batch_keys.tolist(), batch_vals.tolist()):
            base = (hash64(int(key)) % n_sets) * WAYS
            row = keys[base:base + WAYS]
            loc = -1
            for w in range(WAYS):
                if int(row[w]) == key:
                    loc = w
                    break
            if loc < 0:
                for w in range(WAYS):
                    if int(row[w]) == 0:
                        loc = w
                        break
            if loc < 0:
                loc = hash64(int(key) ^ 0x9E3779B97F4A7C15) % WAYS
            keys[base + loc] = key
            values[base + loc] = value
        snapshots.append((keys.copy(), values.copy()))
    return tuple(snapshots)


class HashMapOracle(CrashOracle):
    """PersistentHashMap batched inserts under systematic crashes."""

    name = "hashmap"
    modes = (Mode.GPM,)
    supports_thread_injection = True

    def execute(self, system, mode: Mode, injector) -> None:
        pmap = PersistentHashMap.create(system, _PMAP_PATH,
                                        capacity=_PMAP_CAPACITY)
        for keys, vals in _pmap_batches():
            pmap.insert_batch(keys, vals, crash_injector=injector)

    def declare_invariants(self, system, mode: Mode,
                           observation: RunObservation) -> list:
        if not system.fs.exists(_PMAP_PATH):
            return [("hashmap-untouched",
                     "crash predates the map; nothing to check",
                     lambda: (True, "no map on PM"))]
        pmap = PersistentHashMap.open(system, _PMAP_PATH)
        checks = list(pmap.declare_invariants(system))

        def batch_atomicity() -> tuple[bool, str]:
            keys = pmap._keys.np_persisted
            values = pmap._values.np_persisted
            for k, (ref_keys, ref_vals) in enumerate(_pmap_reference_prefixes()):
                if np.array_equal(keys, ref_keys) and np.array_equal(values, ref_vals):
                    return True, f"map is exactly the {k}-batch prefix state"
            return False, ("recovered map matches no committed-batch prefix: "
                           "an insert batch was applied partially")

        checks.append(("hashmap-batch-atomicity",
                       "the recovered map is a committed-batch prefix",
                       batch_atomicity))
        return checks


# ---------------------------------------------------------------------------
# pstruct: ring
# ---------------------------------------------------------------------------

_RING_PATH = "/pm/checkring"
_RING_CAPACITY = 256
_RING_APPENDS = 64
_RING_BLOCK = 32
_RING_VALUE_BASE = 1000


def _ring_append_kernel(ctx, ring, n):
    i = ctx.global_id
    if i >= n:
        return
    ring.append(ctx, _RING_VALUE_BASE + i)


def _ring_extra_kernel(ctx, ring, n, base):
    i = ctx.global_id
    if i >= n:
        return
    ring.append(ctx, base + i)


class RingOracle(CrashOracle):
    """PersistentRing appends: sentinel discipline and cursor repair."""

    name = "ring"
    modes = (Mode.GPM,)
    supports_thread_injection = True

    def execute(self, system, mode: Mode, injector) -> None:
        ring = PersistentRing.create(system, _RING_PATH, _RING_CAPACITY)
        blocks = _RING_APPENDS // _RING_BLOCK
        with persist_window(system):
            system.gpu.launch(_ring_append_kernel, blocks, _RING_BLOCK,
                              (ring, _RING_APPENDS), crash_injector=injector)

    def declare_invariants(self, system, mode: Mode,
                           observation: RunObservation) -> list:
        if not system.fs.exists(_RING_PATH):
            return [("ring-untouched",
                     "crash predates the ring; nothing to check",
                     lambda: (True, "no ring on PM"))]
        ring = PersistentRing.open(system, _RING_PATH)
        checks = list(ring.declare_invariants(system))

        def committed_values_correct() -> tuple[bool, str]:
            # Ticket t was handed to the thread that appended value
            # _RING_VALUE_BASE + t (deterministic engine order), so every
            # committed record's payload is implied by its ticket.
            bad = [(t, v) for t, v in ring.committed(durable=True)
                   if v != _RING_VALUE_BASE + t]
            if bad:
                return False, f"committed-but-torn records: {bad[:4]}"
            n = len(ring.committed(durable=True))
            return True, f"all {n} committed payloads match their tickets"

        def append_after_recovery() -> tuple[bool, str]:
            # The repaired cursor must hand out fresh tickets: appending
            # more records may not overwrite any pre-crash commit.
            before = dict(ring.committed(durable=True))
            extra_base = _RING_VALUE_BASE + 10_000
            with persist_window(system):
                system.gpu.launch(_ring_extra_kernel, 1, 8,
                                  (ring, 1 << 30, extra_base))
            after = dict(ring.committed(durable=True))
            lost = [t for t, v in before.items() if after.get(t) != v]
            if lost:
                return False, f"post-recovery appends overwrote tickets {lost[:4]}"
            return True, f"{len(after) - len(before)} fresh appends, history intact"

        checks.append(("ring-committed-values-correct",
                       "every committed payload matches its ticket",
                       committed_values_correct))
        checks.append(("ring-append-after-recovery",
                       "fresh appends never overwrite pre-crash commits",
                       append_after_recovery))
        return checks


# ---------------------------------------------------------------------------
# broken-demo: the deliberately buggy fixture
# ---------------------------------------------------------------------------

_BROKEN_PATH = "/pm/broken.ring"
_BROKEN_N = 32
_BROKEN_HEADER = 128
_BROKEN_VALUE_BASE = 4000


def _broken_append_kernel(ctx, slots, n):
    i = ctx.global_id
    if i >= n:
        return
    # BUG (deliberate): the ordering fence sits on the wrong side - the
    # commit sentinel is persisted in the drain round *before* the payload
    # it guards.  A crash between the two rounds exposes a committed-but-
    # torn record.  Thread-count injection cannot see this window (the
    # warp's rounds are lost together); the warp-drain event frontier can.
    slots.write(ctx, i * 2, np.uint64(i + 1))
    ctx.persist()
    slots.write(ctx, i * 2 + 1, np.uint64(_BROKEN_VALUE_BASE + i))
    ctx.persist()


class BrokenDemoOracle(CrashOracle):
    """A fence-ordering bug the checker must catch deterministically."""

    name = "broken-demo"
    modes = (Mode.GPM,)
    supports_thread_injection = True

    def execute(self, system, mode: Mode, injector) -> None:
        size = _BROKEN_HEADER + _BROKEN_N * 16
        region = gpm_map(system, _BROKEN_PATH, size, create=True)
        slots = DeviceArray(region.region, np.uint64, _BROKEN_HEADER,
                            _BROKEN_N * 2)
        with persist_window(system):
            system.gpu.launch(_broken_append_kernel, 1, _BROKEN_N,
                              (slots, _BROKEN_N), crash_injector=injector)

    def declare_invariants(self, system, mode: Mode,
                           observation: RunObservation) -> list:
        def sentinel_implies_payload() -> tuple[bool, str]:
            if not system.fs.exists(_BROKEN_PATH):
                return True, "crash predates the file"
            region = gpm_map(system, _BROKEN_PATH)
            slots = region.region.persisted_view(
                np.uint64, _BROKEN_HEADER, _BROKEN_N * 2
            ).reshape(_BROKEN_N, 2)
            torn = [i for i in range(_BROKEN_N)
                    if int(slots[i, 0]) == i + 1
                    and int(slots[i, 1]) != _BROKEN_VALUE_BASE + i]
            if torn:
                return False, (f"{len(torn)} committed-but-torn records "
                               f"(first: slot {torn[0]})")
            return True, "every durable sentinel guards a durable payload"

        return [("broken-sentinel-implies-payload",
                 "a durable commit sentinel implies its payload is durable",
                 sentinel_implies_payload)]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CHECK_TARGETS: dict[str, type[CrashOracle]] = {
    PrefixSumOracle.name: PrefixSumOracle,
    KvsOracle.name: KvsOracle,
    KvsDeleteOracle.name: KvsDeleteOracle,
    DbUpdateOracle.name: DbUpdateOracle,
    CheckpointedDnnOracle.name: CheckpointedDnnOracle,
    HashMapOracle.name: HashMapOracle,
    RingOracle.name: RingOracle,
    BrokenDemoOracle.name: BrokenDemoOracle,
}


def make_oracle(target: str) -> CrashOracle:
    try:
        cls = CHECK_TARGETS[target]
    except KeyError:
        known = ", ".join(sorted(CHECK_TARGETS))
        raise ValueError(f"unknown check target {target!r}; one of: {known}")
    return cls()
