"""The front-end: tenant streams served on the *simulated* clock.

The service's time is :class:`~repro.sim.clock.SimClock`, so serving is a
discrete-event loop over one heap of parked tenants:

* a tenant offers every request whose arrival the clock has reached to
  admission control (admitted ones go to the batcher), then parks on its
  next request in a heap keyed by ``(arrival, park order)``;
* the loop advances the simulated clock only to the earliest interesting
  time (the next arrival or the batcher's linger deadline), then runs
  every tenant that came due, in heap order;
* kernel launches (batch flushes) advance the clock themselves; tenants
  whose arrival the flush ran past run right after, their requests
  arriving "late" exactly as an open-loop client's would.

Everything is single-threaded and heap-ordered, so a run is a
deterministic pure function of the traffic schedule - the property the
byte-identical summary tests pin.

Every exception propagates.  A :class:`~repro.sim.crash.SimulatedCrash`
raised by a mid-flush crash injector leaves the system in its crashed
state for recovery tests.
"""

from __future__ import annotations

import heapq
from itertools import count

from ..sim.events import ServiceRequest
from .admission import AdmissionController
from .batcher import Batcher


class Frontend:
    """Runs tenant streams through admission + batching to completion."""

    def __init__(self, system, admission: AdmissionController,
                 batcher: Batcher, crash_injector=None) -> None:
        self.system = system
        self.admission = admission
        self.batcher = batcher
        self.crash_injector = crash_injector
        #: parked tenants: ``(arrival, park order, request, rest of stream)``
        self._parked: list = []
        self._park_order = count()

    def _offer(self, req) -> None:
        admitted, reason = self.admission.offer(req.tenant, self.system.clock.now)
        self.system.events.emit(ServiceRequest(tenant=req.tenant, op=req.op,
                                               admitted=admitted, reason=reason))
        if admitted:
            self.batcher.submit(req)

    def _serve(self, rest, due=None) -> None:
        """Offer ``due``, then every later request the clock has reached.

        The tenant then parks on its first request still in the future.
        """
        clock = self.system.clock
        if due is not None:
            self._offer(due)
        for req in rest:
            if req.arrival > clock.now:
                heapq.heappush(self._parked,
                               (req.arrival, next(self._park_order), req, rest))
                return
            self._offer(req)

    def run(self, streams: list) -> None:
        """Serve every stream to completion (or until a simulated crash)."""
        clock = self.system.clock
        batcher = self.batcher
        parked = self._parked
        for stream in streams:
            self._serve(iter(stream.requests))
        # The loop's logical "now".  Advancing the clock to a target time
        # adds a tiny delta to a much larger float and can be absorbed by
        # rounding, leaving the clock one ulp short of the target forever;
        # the cursor tracks the target exactly, so linger deadlines and
        # arrivals are compared against a value that actually reaches them.
        cursor = clock.now
        while parked or batcher.pending:
            if batcher.should_flush(cursor):
                batcher.flush(self.crash_injector)
                cursor = max(cursor, clock.now)
            else:
                t = batcher.next_deadline()
                if parked and (t is None or parked[0][0] < t):
                    t = parked[0][0]
                if t > clock.now:
                    clock.advance(t - clock.now)
                cursor = max(cursor, clock.now, t)
            # Pop every due tenant before any runs: one that re-parks at or
            # before the cursor waits for the next wake.
            due = []
            while parked and parked[0][0] <= cursor:
                due.append(heapq.heappop(parked))
            for _, _, req, rest in due:
                self._serve(rest, req)
            cursor = max(cursor, clock.now)
