"""Sharded HCL logs: N independent undo logs keyed by key-hash range.

gpKVS brackets every SET/DELETE batch with one :class:`HclLog` and one
:class:`TransactionFlag`; the whole store is one persistence domain, so one
in-flight batch serialises the log lifecycle.  The serving layer shards
that domain: the hash table's ``n_sets`` sets are split into ``n_shards``
contiguous ranges, and each range owns a private HCL log and transaction
flag.  Because a key's set index (``hash64(key) % n_sets``) fully
determines its shard, batches grouped by shard touch *disjoint* table
slices and *disjoint* logs - their drain epochs overlap on the link and
media exactly like the multi-GPU coordinator's launches, and a crash is
recovered shard-by-shard with the unmodified recovery kernel of Fig. 6b.

On-PM layout (all under one base path, default ``/pm/serve``)::

    <base>/meta           manifest: magic, n_shards, n_sets, ways, geometry
    <base>/shard00.log    HCL log of shard 0 (per-batch undo entries)
    <base>/shard00.flag   transaction flag of shard 0
    ...

The manifest is persisted at creation so post-crash recovery can rebuild
the shard map from PM alone (:meth:`ShardedHclLog.open`).
"""

from __future__ import annotations

import numpy as np

from ..core.errors import GpmError
from ..core.hcl import HclLog
from ..core.logging import gpmlog_create_hcl, gpmlog_open
from ..core.mapping import gpm_map
from ..core.transactions import TransactionFlag
from ..sim.events import TraceMark

SERVE_MAGIC = 0x53525631  # "SRV1"
_META_BYTES = 64


def _check_shard_geometry(n_sets: int, n_shards: int) -> None:
    """Reject shard geometries that cannot partition the set space.

    ``n_shards > n_sets`` would leave ownerless shards with silently empty
    ranges - a misconfiguration, not a layout - and non-positive counts
    break the range arithmetic outright.
    """
    if n_sets < 1:
        raise GpmError(f"need at least one table set, got n_sets={n_sets}")
    if n_shards < 1:
        raise GpmError(f"need at least one log shard, got n_shards={n_shards}")
    if n_shards > n_sets:
        raise GpmError(
            f"n_shards={n_shards} exceeds n_sets={n_sets}: "
            "every shard must own at least one set"
        )


def shard_of_sets(set_idxs: np.ndarray, n_sets: int, n_shards: int) -> np.ndarray:
    """Map table set indices to shard ids (contiguous, near-equal ranges)."""
    _check_shard_geometry(n_sets, n_shards)
    return (np.asarray(set_idxs, dtype=np.int64) * n_shards) // n_sets


def shard_set_range(shard: int, n_sets: int, n_shards: int) -> tuple[int, int]:
    """The half-open ``[first_set, last_set)`` range shard ``shard`` owns."""
    _check_shard_geometry(n_sets, n_shards)
    if not 0 <= shard < n_shards:
        raise GpmError(f"shard {shard} out of range for n_shards={n_shards}")
    first = (shard * n_sets + n_shards - 1) // n_shards
    last = ((shard + 1) * n_sets + n_shards - 1) // n_shards
    return first, last


class ShardedHclLog:
    """N per-shard HCL logs plus their transaction flags, under one base.

    ``blocks``/``threads_per_block`` is the *maximum* kernel geometry one
    shard's batch slice may launch with; each shard's log is formatted for
    that geometry (the paper: the logging thread count is known before the
    kernel starts).
    """

    def __init__(self, system, base: str, n_shards: int, n_sets: int,
                 logs: list[HclLog], flags: list[TransactionFlag]) -> None:
        _check_shard_geometry(n_sets, n_shards)
        self.system = system
        self.base = base
        self.n_shards = n_shards
        self.n_sets = n_sets
        self.logs = logs
        self.flags = flags

    # -- paths --------------------------------------------------------------

    @staticmethod
    def meta_path(base: str) -> str:
        return f"{base}/meta"

    @staticmethod
    def log_path(base: str, shard: int) -> str:
        return f"{base}/shard{shard:02d}.log"

    @staticmethod
    def flag_path(base: str, shard: int) -> str:
        return f"{base}/shard{shard:02d}.flag"

    # -- creation / reopening ------------------------------------------------

    @classmethod
    def create(cls, system, base: str, n_shards: int, n_sets: int, ways: int,
               blocks: int, threads_per_block: int) -> "ShardedHclLog":
        """Format the manifest, one HCL log and one flag per shard."""
        system.events.emit(TraceMark(category="serve",
                                     label=f"create_shards:{base}:{n_shards}"))
        meta = gpm_map(system, cls.meta_path(base), _META_BYTES, create=True)
        header = meta.view(np.uint32, 0, _META_BYTES // 4)
        header[0] = SERVE_MAGIC
        header[1] = n_shards
        header[2] = n_sets
        header[3] = ways
        header[4] = blocks
        header[5] = threads_per_block
        meta.region.persist_range(0, _META_BYTES)
        capacity = blocks * threads_per_block * 64 * 4 + (1 << 14)
        logs, flags = [], []
        for s in range(n_shards):
            logs.append(gpmlog_create_hcl(system, cls.log_path(base, s),
                                          capacity, blocks, threads_per_block))
            flags.append(TransactionFlag.create(system, cls.flag_path(base, s)))
        return cls(system, base, n_shards, n_sets, logs, flags)

    @classmethod
    def open(cls, system, base: str) -> "ShardedHclLog":
        """Re-attach to the persisted shards (the post-crash entry point)."""
        manifest = cls.manifest(system, base)
        n_shards, n_sets = manifest["n_shards"], manifest["n_sets"]
        logs, flags = [], []
        for s in range(n_shards):
            log = gpmlog_open(system, cls.log_path(base, s))
            if not isinstance(log, HclLog):
                raise GpmError(f"shard {s} of {base!r} is not an HCL log")
            logs.append(log)
            flags.append(TransactionFlag.open(system, cls.flag_path(base, s)))
        return cls(system, base, n_shards, n_sets, logs, flags)

    @classmethod
    def manifest(cls, system, base: str) -> dict:
        """Read the persisted manifest fields (for recovery tooling)."""
        meta = gpm_map(system, cls.meta_path(base))
        header = meta.persisted_view(np.uint32, 0, _META_BYTES // 4)
        if int(header[0]) != SERVE_MAGIC:
            raise GpmError(f"{cls.meta_path(base)!r} is not a serve manifest")
        return {"n_shards": int(header[1]), "n_sets": int(header[2]),
                "ways": int(header[3]), "blocks": int(header[4]),
                "threads_per_block": int(header[5])}

    # -- shard addressing ----------------------------------------------------

    def shard_of_set(self, set_idxs: np.ndarray) -> np.ndarray:
        return shard_of_sets(set_idxs, self.n_sets, self.n_shards)

    def log(self, shard: int) -> HclLog:
        return self.logs[shard]

    def flag(self, shard: int) -> TransactionFlag:
        return self.flags[shard]

    # -- batch transaction protocol -----------------------------------------

    def begin(self, shards) -> None:
        """Persist the active flag of every participating shard.

        Flags go active *before* any shard's kernel runs, mirroring the
        single-log protocol: recovery treats each shard independently, so a
        crash anywhere in the flush leaves every touched shard undoable.
        """
        for s in shards:
            self.flags[s].begin()

    def commit(self, shards) -> None:
        """Commit and truncate every participating shard's log."""
        for s in shards:
            self.flags[s].commit()
            self.logs[s].clear()

    def active_shards(self) -> list[int]:
        """Shards whose *persisted* flag says a batch was in flight."""
        return [s for s in range(self.n_shards) if self.flags[s].active]
