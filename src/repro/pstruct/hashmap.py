"""A crash-consistent GPU hash map on persistent memory.

The gpKVS recipe of Fig. 6, packaged as a reusable type: a set-associative
u64 -> u64 table on PM whose batched inserts run as GPU kernels under HCL
write-ahead undo logging and a transaction flag.  Any crash leaves the map
in the state of the last committed batch after :meth:`recover`.

Usage::

    pmap = PersistentHashMap.create(system, "/pm/map", capacity=65536)
    pmap.insert_batch(keys, values)      # durable + atomic
    pmap.get(key)                        # host-side lookup
    # after a crash:
    pmap = PersistentHashMap.open(system, "/pm/map")
    pmap.recover()
"""

from __future__ import annotations

import numpy as np

from ..core.errors import GpmError, LogEmpty
from ..core.logging import (
    gpmlog_clear,
    gpmlog_create_hcl,
    gpmlog_insert,
    gpmlog_open,
    gpmlog_read,
    gpmlog_remove,
)
from ..core.mapping import gpm_map
from ..core.persist import persist_window
from ..core.transactions import TransactionFlag
from ..gpu.memory import DeviceArray
from ..gpu.warp import vectorized_for
from ..workloads.kvs import hash64

_HEADER_BYTES = 128
_MAGIC = 0x504D4150  # "PMAP"
WAYS = 8
#: undo entry: [slot u64, old_key u64, old_value u64]
_UNDO_BYTES = 24
_BLOCK_DIM = 128
_MAX_BATCH = 8192


def _insert_kernel(ctx, keys, values, batch_keys, batch_values, n_ops,
                   n_sets, log):
    i = ctx.global_id
    if i >= n_ops:
        return
    key = int(batch_keys.read(ctx, i))
    value = int(batch_values.read(ctx, i))
    ctx.charge_ops(6)
    base = (hash64(key) % n_sets) * WAYS
    row = keys.read_vec(ctx, base, WAYS)
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
        loc = hash64(key ^ 0x9E3779B97F4A7C15) % WAYS
    slot = base + loc
    old = np.array([slot, int(row[loc]), int(values.read(ctx, slot))],
                   dtype=np.uint64)
    gpmlog_insert(ctx, log, old)
    keys.write(ctx, slot, key)
    values.write(ctx, slot, value)
    ctx.persist()


def _undo_kernel(ctx, keys, values, log, n_ops):
    if ctx.global_id >= n_ops:
        return
    try:
        raw = gpmlog_read(ctx, log, _UNDO_BYTES)
    except LogEmpty:
        return
    entry = raw.view(np.uint64)
    slot = int(entry[0])
    keys.write(ctx, slot, entry[1])
    values.write(ctx, slot, entry[2])
    ctx.persist()
    gpmlog_remove(ctx, log, _UNDO_BYTES)


@vectorized_for(_undo_kernel)
def _undo_kernel_warp(wctx, keys, values, log, n_ops):
    sel = wctx.active(wctx.global_ids < n_ops)
    if sel.size == 0:
        return
    entries, live = log.read_warp(wctx, _UNDO_BYTES, lanes=sel)
    if live.size == 0:
        return
    entry = entries.view(np.uint64)
    slots = entry[:, 0].astype(np.int64)
    keys.write_warp(wctx, slots, entry[:, 1], lanes=live)
    values.write_warp(wctx, slots, entry[:, 2], lanes=live)
    wctx.persist(live)
    log.remove_warp(wctx, _UNDO_BYTES, lanes=live)


class PersistentHashMap:
    """A recoverable set-associative map for GPU batch workloads."""

    def __init__(self, system, path: str) -> None:
        self.system = system
        self.path = path
        self.gpm = gpm_map(system, path)
        header = self.gpm.view(np.uint32, 0, 4)
        if int(header[0]) != _MAGIC:
            raise GpmError(f"{path!r} is not a PersistentHashMap")
        self.n_sets = int(header[1])
        self.capacity = self.n_sets * WAYS
        self._keys = self.gpm.array(np.uint64, _HEADER_BYTES, self.capacity)
        self._values = self.gpm.array(
            np.uint64, _HEADER_BYTES + self.capacity * 8, self.capacity
        )
        self._flag = (TransactionFlag.open(system, f"{path}.flag")
                      if system.fs.exists(f"{path}.flag")
                      else TransactionFlag.create(system, f"{path}.flag"))
        self._log = (gpmlog_open(system, f"{path}.log")
                     if system.fs.exists(f"{path}.log")
                     else self._make_log())

    def _make_log(self):
        blocks = (_MAX_BATCH + _BLOCK_DIM - 1) // _BLOCK_DIM
        capacity = blocks * _BLOCK_DIM * 8 * _UNDO_BYTES + (1 << 16)
        return gpmlog_create_hcl(self.system, f"{self.path}.log", capacity,
                                 blocks, _BLOCK_DIM)

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def create(cls, system, path: str, capacity: int) -> "PersistentHashMap":
        """Create a new map with at least ``capacity`` slots."""
        n_sets = max(1, -(-capacity // WAYS))
        size = _HEADER_BYTES + n_sets * WAYS * 16
        region = gpm_map(system, path, size, create=True)
        header = region.view(np.uint32, 0, 4)
        header[0] = _MAGIC
        header[1] = n_sets
        region.region.persist_range(0, _HEADER_BYTES)
        return cls(system, path)

    @classmethod
    def open(cls, system, path: str) -> "PersistentHashMap":
        """Re-attach to an existing map (e.g. after a crash)."""
        return cls(system, path)

    # -- mutation -------------------------------------------------------------

    def insert_batch(self, keys, values, crash_injector=None) -> float:
        """Atomically and durably apply a batch of inserts on the GPU.

        Keys must be nonzero and unique within the batch.  Returns elapsed
        simulated seconds.  On a mid-batch crash, :meth:`recover` restores
        the pre-batch state.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        values = np.asarray(values, dtype=np.uint64)
        if keys.size != values.size:
            raise GpmError("keys and values must pair up")
        if keys.size > _MAX_BATCH:
            raise GpmError(f"batch of {keys.size} exceeds {_MAX_BATCH}")
        if (keys == 0).any():
            raise GpmError("0 is the empty-slot sentinel; keys must be nonzero")
        if np.unique(keys).size != keys.size:
            raise GpmError("keys must be unique within a batch")
        system = self.system
        start = system.machine.clock.now
        n = keys.size
        hbm = system.machine.alloc_hbm(f"{self.path}.batch", n * 16)
        bk = DeviceArray(hbm, np.uint64, 0, n)
        bv = DeviceArray(hbm, np.uint64, n * 8, n)
        bk.np[:] = keys
        bv.np[:] = values
        blocks = (n + _BLOCK_DIM - 1) // _BLOCK_DIM
        self._flag.begin()
        try:
            with persist_window(system):
                system.gpu.launch(
                    _insert_kernel, blocks, _BLOCK_DIM,
                    (self._keys, self._values, bk, bv, n, self.n_sets,
                     self._log),
                    crash_injector=crash_injector,
                )
            self._flag.commit()
            gpmlog_clear(self._log)
        finally:
            system.machine.free(hbm)
        return system.machine.clock.now - start

    def recover(self) -> float:
        """Undo any interrupted batch; safe to call unconditionally."""
        system = self.system
        start = system.machine.clock.now
        if self._flag.active:
            blocks = (_MAX_BATCH + _BLOCK_DIM - 1) // _BLOCK_DIM
            with persist_window(system):
                system.gpu.launch(_undo_kernel, blocks, _BLOCK_DIM,
                                  (self._keys, self._values, self._log,
                                   _MAX_BATCH))
            self._flag.commit()
        gpmlog_clear(self._log)
        return system.machine.clock.now - start

    # -- crash invariants --------------------------------------------------------

    def declare_invariants(self, system=None) -> list:
        """Structural invariants (``repro.check`` protocol).

        Judged after a crash plus :meth:`recover`: the header survives, the
        batch flag is idle, and no slot is torn (a durable key whose value
        word is still the empty sentinel - every insert persists both words
        in one epoch, and undo restores them pairwise).  Returns plain
        ``(name, description, fn)`` triples, ``fn() -> (ok, detail)``.
        """

        def header_intact() -> tuple[bool, str]:
            header = self.gpm.view(np.uint32, 0, 4)
            if int(header[0]) != _MAGIC:
                return False, f"magic is {int(header[0]):#x}"
            if int(header[1]) != self.n_sets:
                return False, f"n_sets changed to {int(header[1])}"
            return True, "magic and geometry intact"

        def flag_idle() -> tuple[bool, str]:
            if self._flag.active:
                return False, "batch flag still active after recovery"
            return True, "batch flag idle"

        def no_torn_slots() -> tuple[bool, str]:
            keys = self._keys.np_persisted
            values = self._values.np_persisted
            torn = np.flatnonzero((keys != 0) & (values == 0))
            if torn.size:
                return False, f"{torn.size} durable keys lost their values"
            return True, "every durable key carries its durable value"

        return [
            ("hashmap-header-intact",
             "the map header survives any crash", header_intact),
            ("hashmap-flag-idle",
             "the batch transaction flag is idle after recovery", flag_idle),
            ("hashmap-no-torn-slots",
             "key and value words of a slot are never torn apart",
             no_torn_slots),
        ]

    # -- queries ---------------------------------------------------------------

    def get(self, key: int, durable: bool = False) -> int | None:
        """Host-side lookup; ``durable=True`` reads the post-crash image."""
        view_keys = self._keys.np_persisted if durable else self._keys.np
        view_vals = self._values.np_persisted if durable else self._values.np
        base = (hash64(int(key)) % self.n_sets) * WAYS
        for w in range(WAYS):
            if int(view_keys[base + w]) == key:
                return int(view_vals[base + w])
        return None

    def __len__(self) -> int:
        return int(np.count_nonzero(self._keys.np))

    def items(self):
        """Iterate (key, value) pairs currently resident."""
        occupied = np.flatnonzero(self._keys.np)
        for slot in occupied.tolist():
            yield int(self._keys.np[slot]), int(self._values.np[slot])
