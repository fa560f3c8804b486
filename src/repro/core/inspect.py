"""Post-crash inspection of PM state - a ``pmempool``-style doctor.

After a crash, an operator (or a recovery harness deciding *whether* to run
recovery kernels) wants to see what is on PM: which libGPM structures live
in which files, whether transactions were in flight, how much data each
per-thread log holds.  These helpers read only durable state (the
persisted images), never the volatile views, so their answers are exactly
what a post-restart process would see.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..host.filesystem import PmFile
from .checkpoint import CP_MAGIC, Gpmcp
from .conventional import CONV_MAGIC, ConventionalLog
from .hcl import HCL_MAGIC, HclLog
from .mapping import GpmRegion
from .transactions import FLAG_ACTIVE


@dataclass
class FileReport:
    """What one PM file durably contains."""

    path: str
    size: int
    kind: str                      # "hcl-log" | "conv-log" | "checkpoint" | "raw"
    detail: dict = field(default_factory=dict)

    def describe(self) -> str:
        extras = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"{self.path} [{self.kind}] {self.size} B ({extras})"


def _magic_of(pm_file: PmFile) -> int:
    if pm_file.size < 4:
        return 0
    return int(pm_file.region.persisted_view(np.uint32, 0, 1)[0])


def classify_file(system, pm_file: PmFile) -> FileReport:
    """Identify the durable libGPM structure (if any) in one PM file."""
    magic = _magic_of(pm_file)
    gpm = GpmRegion(system, pm_file)
    if magic == HCL_MAGIC:
        log = HclLog(gpm)
        tails = log.host_tails()
        return FileReport(pm_file.path, pm_file.size, "hcl-log", {
            "geometry": f"{log.blocks}x{log.threads_per_block}",
            "threads_with_entries": int(np.count_nonzero(tails)),
            "total_chunks": int(tails.sum(dtype=np.int64)),
            "striped": log.striped,
        })
    if magic == CONV_MAGIC:
        log = ConventionalLog(gpm)
        counts = [log.host_count(p) for p in range(log.partitions)]
        return FileReport(pm_file.path, pm_file.size, "conv-log", {
            "partitions": log.partitions,
            "non_empty_partitions": sum(1 for c in counts if c),
            "total_bytes": sum(counts),
        })
    if magic == CP_MAGIC:
        cp = Gpmcp(system, gpm)
        selectors = [cp._selector(g) for g in range(cp.groups)]
        return FileReport(pm_file.path, pm_file.size, "checkpoint", {
            "groups": cp.groups,
            "group_bytes": cp.group_bytes,
            "consistent_copies": selectors,
        })
    # Higher-level structures from repro.pstruct register their magics here
    # (imported lazily: pstruct builds on core).
    if magic == 0x504D4150:  # "PMAP"
        n_sets = int(pm_file.region.persisted_view(np.uint32, 4, 1)[0])
        keys = pm_file.region.persisted_view(np.uint64, 128, n_sets * 8)
        return FileReport(pm_file.path, pm_file.size, "hashmap", {
            "capacity": n_sets * 8,
            "occupied": int(np.count_nonzero(keys)),
        })
    if magic == 0x50524E47:  # "PRNG"
        capacity = int(pm_file.region.persisted_view(np.uint32, 4, 1)[0])
        seqs = pm_file.region.persisted_view(np.uint64, 128, capacity * 2)[::2]
        return FileReport(pm_file.path, pm_file.size, "ring", {
            "capacity": capacity,
            "committed": int(np.count_nonzero(seqs)),
        })
    detail = {}
    # A bare 64-byte file whose first word is 0/1 is (likely) a tx flag.
    if pm_file.size == 64 and magic in (0, FLAG_ACTIVE):
        detail["transaction_active"] = bool(magic == FLAG_ACTIVE)
        return FileReport(pm_file.path, pm_file.size, "tx-flag", detail)
    return FileReport(pm_file.path, pm_file.size, "raw", {
        "nonzero_bytes": int(np.count_nonzero(pm_file.region.persisted)),
    })


def survey(system) -> list[FileReport]:
    """Classify every PM file on the system's filesystem."""
    return [classify_file(system, system.fs.open(path))
            for path in system.fs.listdir()]


def pending_recovery(system) -> list[str]:
    """Paths whose durable state demands recovery before reuse.

    A set transaction flag means an interrupted batch; its sibling logs
    hold the undo entries.
    """
    return [
        report.path
        for report in survey(system)
        if report.kind == "tx-flag" and report.detail.get("transaction_active")
    ]


def format_survey(system) -> str:
    """A human-readable dump of all durable libGPM state."""
    lines = ["durable PM state:"]
    for report in survey(system):
        lines.append("  " + report.describe())
    needs = pending_recovery(system)
    if needs:
        lines.append(f"RECOVERY NEEDED: active transaction flags at {needs}")
    else:
        lines.append("no interrupted transactions")
    return "\n".join(lines)
