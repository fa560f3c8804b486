"""Admission control: per-tenant token buckets plus a global queue cap.

An open-loop service cannot slow its clients down; when offered load
exceeds what warp-batched kernel launches can drain, the only choices are
unbounded queueing (p99 goes to infinity) or *shedding*.  The controller
makes both decisions at enqueue time, deterministically:

* each tenant owns a :class:`TokenBucket` (rate = its contracted ops/s,
  burst = a few batches' worth), so one tenant's burst cannot starve the
  others - the bucket sheds *that tenant's* excess;
* a global queue-depth cap bounds the batcher's backlog, so total memory
  and worst-case latency stay finite - overflow sheds whoever arrives
  when the queue is full, whatever their bucket says.

Every decision is accounted per tenant and per reason (``tenant-rate`` vs
``queue-full``) so the metrics sink can report shed rates that explain
*why* requests were dropped, not just how many.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class TokenBucket:
    """The classic token bucket, run on the simulated clock.

    Refill is computed lazily from elapsed simulated time, so the bucket
    needs no timer and is exact at any simulated instant.
    """

    def __init__(self, rate: float, burst: float, now: float = 0.0) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("token bucket needs positive rate and burst")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last = float(now)

    def _refill(self, now: float) -> None:
        if now > self._last:
            self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
            self._last = now

    def try_take(self, now: float, n: float = 1.0) -> bool:
        """Consume ``n`` tokens if available; never blocks."""
        self._refill(now)
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False


@dataclass
class AdmissionStats:
    """Per-tenant admission ledger."""

    offered: int = 0
    admitted: int = 0
    shed_rate: int = 0       # tenant token bucket said no
    shed_queue: int = 0      # global queue-depth cap said no

    @property
    def shed(self) -> int:
        return self.shed_rate + self.shed_queue


@dataclass
class AdmissionConfig:
    #: per-tenant contracted rate, ops per simulated second
    tenant_rate: float = 600_000.0
    #: per-tenant burst allowance, in requests
    tenant_burst: float = 256.0
    #: global cap on queued-but-unlaunched requests
    max_queue_depth: int = 2048


class AdmissionController:
    """Decides, per request, admit vs shed - and keeps the ledger."""

    def __init__(self, config: AdmissionConfig | None = None) -> None:
        self.config = config or AdmissionConfig()
        self._buckets: dict[str, TokenBucket] = {}
        self.stats: dict[str, AdmissionStats] = {}
        #: live count of admitted-but-unlaunched requests, maintained by
        #: the batcher via :meth:`drained`
        self.queue_depth = 0

    def _bucket(self, tenant: str, now: float) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.config.tenant_rate,
                                 self.config.tenant_burst, now)
            self._buckets[tenant] = bucket
        return bucket

    def tenant_stats(self, tenant: str) -> AdmissionStats:
        stats = self.stats.get(tenant)
        if stats is None:
            stats = AdmissionStats()
            self.stats[tenant] = stats
        return stats

    def offer(self, tenant: str, now: float) -> tuple[bool, str]:
        """Admit or shed one request arriving from ``tenant`` at ``now``.

        Returns ``(admitted, reason)``; ``reason`` is ``""`` on admission,
        else ``"tenant-rate"`` or ``"queue-full"``.
        """
        stats = self.tenant_stats(tenant)
        stats.offered += 1
        if not self._bucket(tenant, now).try_take(now):
            stats.shed_rate += 1
            return False, "tenant-rate"
        if self.queue_depth >= self.config.max_queue_depth:
            stats.shed_queue += 1
            return False, "queue-full"
        stats.admitted += 1
        self.queue_depth += 1
        return True, ""

    def drained(self, n: int) -> None:
        """The batcher launched ``n`` queued requests."""
        self.queue_depth -= n
        if self.queue_depth < 0:
            raise AssertionError("queue depth went negative")
