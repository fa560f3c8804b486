"""The CrashOracle protocol: what a target must say about itself.

An oracle packages one checkable target (a GPMbench workload or a pstruct
structure) for the explorer: how to run it on a fresh system with an armed
injector, how to recover the crashed system, and which invariants must hold
over the recovered state.

Invariant plumbing
------------------
Workloads and pstruct types stay import-free of this package: their
``declare_invariants`` methods return plain ``(name, description, fn)``
triples where ``fn() -> (ok, detail)``.  :func:`normalize_invariants` lifts
triples (or ready-made :class:`InvariantCheck` objects) into the typed form
the explorer evaluates, so the protocol costs its implementors nothing but
a method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..core.recovery import RecoveryManager, RecoveryReport
from ..workloads.base import Mode, make_system


@dataclass
class InvariantCheck:
    """One checkable predicate over recovered state."""

    name: str
    description: str
    fn: Callable[[], tuple[bool, str]]

    def evaluate(self) -> "InvariantVerdict":
        try:
            ok, detail = self.fn()
        except Exception as exc:  # an invariant that *errors* is a failure
            return InvariantVerdict(self.name, False,
                                    f"invariant raised {type(exc).__name__}: {exc}")
        return InvariantVerdict(self.name, bool(ok), detail)


@dataclass
class InvariantVerdict:
    name: str
    ok: bool
    detail: str = ""


def normalize_invariants(declared: Iterable) -> list[InvariantCheck]:
    """Lift ``(name, description, fn)`` triples into :class:`InvariantCheck`."""
    checks = []
    for item in declared:
        if isinstance(item, InvariantCheck):
            checks.append(item)
        else:
            name, description, fn = item
            checks.append(InvariantCheck(name, description, fn))
    return checks


class RunObservation:
    """Bus subscriber collecting pre-crash facts invariants may need.

    Counts frontier events by kind and gpmcp checkpoint starts; stops
    accumulating the moment the :class:`~repro.sim.events.Crash` event goes
    by, so the counts describe exactly what the dying run had begun.
    """

    def __init__(self) -> None:
        self.frontier_counts: dict[str, int] = {}
        self.checkpoints_started = 0
        self.crashed = False

    def __call__(self, ts: float, event) -> None:
        if self.crashed:
            return
        cls = type(event)
        if cls.etype == "crash":
            self.crashed = True
            return
        kind = cls.frontier_kind
        if kind is None:
            return
        self.frontier_counts[kind] = self.frontier_counts.get(kind, 0) + 1
        if (cls.etype == "trace_mark" and event.category == "gpmcp"
                and event.label.startswith("checkpoint:")):
            self.checkpoints_started += 1

    def prefix(self) -> "RunObservation":
        """A frozen copy of the counts so far: what a run crashed at the
        event now being emitted would have observed."""
        copy = RunObservation()
        copy.frontier_counts = dict(self.frontier_counts)
        copy.checkpoints_started = self.checkpoints_started
        copy.crashed = True
        return copy


class CrashOracle:
    """Protocol for one crash-consistency check target.

    Subclasses define the four hooks below.  The default ``recover`` runs
    the generic :class:`~repro.core.recovery.RecoveryManager` after giving
    the oracle a chance to register application handlers.
    """

    #: CLI name of the target
    name = "oracle"
    #: modes worth exploring (persistence semantics differ per mode)
    modes = (Mode.GPM,)
    #: does the target's run path accept a ``crash_injector``?  When False
    #: only event-mechanism frontiers apply (arming needs no plumbing).
    supports_thread_injection = True

    def build_system(self, mode: Mode):
        return make_system(mode)

    def execute(self, system, mode: Mode, injector) -> None:
        """Run the target to completion (reference) or until the armed
        ``injector`` fires (exploration raises ``SimulatedCrash``)."""
        raise NotImplementedError

    def attach(self, system, mode: Mode) -> None:
        """Bind the target to a crashed ``system`` without running it.

        Called after every crash, before :meth:`recover`: whatever
        recovery and the invariants use must be rebuilt here from the
        oracle's config and the durable state, never kept from the run
        that crashed, so a system powered up from a durable image alone
        recovers exactly like the crashed one.
        """

    def register_recovery_handlers(self, manager: RecoveryManager,
                                   system, mode: Mode) -> None:
        """Claim path prefixes needing application recovery (optional)."""

    def recover(self, system, mode: Mode,
                provenance: dict | None = None) -> RecoveryReport:
        manager = RecoveryManager(system)
        self.register_recovery_handlers(manager, system, mode)
        return manager.run(provenance=provenance)

    def declare_invariants(self, system, mode: Mode,
                           observation: RunObservation) -> list:
        """Predicates that must hold after :meth:`recover`; triples or
        :class:`InvariantCheck` objects (see :func:`normalize_invariants`)."""
        raise NotImplementedError
