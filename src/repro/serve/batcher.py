"""The batcher: admitted requests become warp-sized kernel launches.

MegaKV's insight, inherited by gpKVS, is that a GPU KVS lives or dies by
batching: individual requests are hopeless against kernel-launch and PCIe
overheads, so the pipeline coalesces a window of requests into one batched
kernel.  The serving layer reproduces that window:

* requests accumulate until either ``target_batch`` of them are pending or
  the oldest has waited ``linger`` simulated seconds - the classic
  size-or-timeout trigger;
* a flush *compacts* same-key mutations (last write wins, exactly
  MegaKV's pre-kernel dedup - the undo log is order-dependent within a
  launch, so a kernel batch must have unique keys); superseded requests
  complete with the batch, marked ``coalesced``;
* the surviving mutations launch as SET and DELETE kernels grouped by
  log shard, then GETs launch against the HBM mirror - so a GET admitted
  in the same window observes the window's writes;
* launches are warp-sized: ``ceil(n / 32)`` blocks of 32 threads, and the
  ``ServiceBatch`` event records ``n_ops`` vs ``threads`` (occupancy).

Every request's completion is announced as a ``ServiceComplete`` event
carrying its queueing + execution latency on the simulated clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.events import ServiceBatch, ServiceComplete
from .store import ShardedKvStore
from .traffic import Request


@dataclass
class BatcherConfig:
    #: flush as soon as this many requests are pending
    target_batch: int = 128
    #: ... or when the oldest pending request has waited this long (s)
    linger: float = 20e-6


class Batcher:
    """Coalesces admitted requests into batched launches on the store."""

    def __init__(self, store: ShardedKvStore, admission,
                 config: BatcherConfig | None = None) -> None:
        self.store = store
        self.admission = admission
        self.config = config or BatcherConfig()
        if self.config.target_batch > store.config.max_batch:
            raise ValueError(
                f"target batch {self.config.target_batch} exceeds the store's "
                f"log geometry ({store.config.max_batch})")
        self.pending: list[Request] = []

    # -- trigger ------------------------------------------------------------

    def should_flush(self, now: float) -> bool:
        if not self.pending:
            return False
        if len(self.pending) >= self.config.target_batch:
            return True
        # Sum form, NOT `now - arrival >= linger`: the driver advances the
        # clock to exactly `next_deadline()`, and the two spellings can
        # disagree by one float ulp - which would leave a deadline that
        # never quite arrives.
        return now >= self.next_deadline()

    def next_deadline(self) -> float | None:
        """When the oldest pending request's linger expires (None if idle)."""
        if not self.pending:
            return None
        return self.pending[0].arrival + self.config.linger

    def submit(self, request: Request) -> None:
        self.pending.append(request)

    # -- flush --------------------------------------------------------------

    def _compact(self, batch: list[Request]):
        """Last-write-wins compaction of same-key mutations.

        Returns ``(sets, deletes, gets, superseded)`` where the mutation
        lists have unique keys (kernel batches require it) and
        ``superseded`` holds the overwritten earlier mutations.
        """
        final: dict[int, Request] = {}
        superseded: list[Request] = []
        gets: list[Request] = []
        for req in batch:
            if req.op == "get":
                gets.append(req)
                continue
            prev = final.get(req.key)
            if prev is not None:
                superseded.append(prev)
            final[req.key] = req
        sets = [r for r in final.values() if r.op == "set"]
        deletes = [r for r in final.values() if r.op == "delete"]
        return sets, deletes, gets, superseded

    def flush(self, crash_injector=None) -> int:
        """Launch one batch window; returns how many requests completed.

        Takes at most ``target_batch`` requests (FIFO) so a backlog that
        built up behind a long kernel never exceeds the store's per-launch
        log geometry; the driver simply flushes again while a backlog
        remains.
        """
        if not self.pending:
            return 0
        take = self.config.target_batch
        batch, self.pending = self.pending[:take], self.pending[take:]
        self.admission.drained(len(batch))
        system = self.store.system
        events = system.events
        sets, deletes, gets, superseded = self._compact(batch)
        if sets:
            keys = np.array([r.key for r in sets], dtype=np.uint64)
            vals = np.array([r.value for r in sets], dtype=np.uint64)
            info = self.store.set_batch(keys, vals, crash_injector=crash_injector)
            events.emit(ServiceBatch(op="set", n_ops=len(sets),
                                     threads=info["threads"],
                                     shards=info["shards"]))
        if deletes:
            keys = np.array([r.key for r in deletes], dtype=np.uint64)
            info = self.store.delete_batch(keys, crash_injector=crash_injector)
            events.emit(ServiceBatch(op="delete", n_ops=len(deletes),
                                     threads=info["threads"],
                                     shards=info["shards"]))
        if gets:
            keys = np.array([r.key for r in gets], dtype=np.uint64)
            _, info = self.store.get_batch(keys)
            events.emit(ServiceBatch(op="get", n_ops=len(gets),
                                     threads=info["threads"], shards=1))
        done = system.clock.now
        for req in sets + deletes + gets:
            events.emit(ServiceComplete(tenant=req.tenant, op=req.op,
                                        latency=done - req.arrival))
        for req in superseded:
            events.emit(ServiceComplete(tenant=req.tenant, op=req.op,
                                        latency=done - req.arrival,
                                        coalesced=True))
        return len(batch)
