"""The replay loop: crash at every frontier, recover, judge.

One exploration is a pure function of ``(target, mode, frontier)`` - a
fresh system, a deterministic replay to the frontier, ``machine.crash()``,
:class:`~repro.core.recovery.RecoveryManager`, invariants - so frontiers
are embarrassingly parallel.  :func:`explore_frontier` is the module-level,
picklable unit of work the multiprocessing fan-out dispatches; it is also
what the CLI's ``--frontier`` flag calls directly to replay one reported
violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.crash import CrashInjector, SimulatedCrash
from ..workloads.base import Mode
from .frontier import Frontier, FrontierRecorder, prune_frontiers
from .oracle import InvariantVerdict, RunObservation, normalize_invariants
from .oracles import make_oracle

#: default exploration budget per (target, mode)
DEFAULT_MAX_FRONTIERS = 128


@dataclass
class FrontierResult:
    """What happened when the target was crashed at one frontier."""

    frontier: Frontier
    status: str                      # "ok" | "violation" | "error" | "no-crash"
    verdicts: list[InvariantVerdict] = field(default_factory=list)
    error: str = ""
    #: Generating coordinates of this crash state (litmus ``seed``/
    #: ``index``/``config``, ...) so a failure report prints its one-line
    #: reproducer without re-running the exploration.
    provenance: dict = field(default_factory=dict)

    @property
    def failed_verdicts(self) -> list[InvariantVerdict]:
        return [v for v in self.verdicts if not v.ok]


@dataclass
class ExploreReport:
    """Outcome of one systematic exploration."""

    target: str
    mode: Mode
    frontiers_recorded: int
    results: list[FrontierResult] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    @property
    def frontiers_explored(self) -> int:
        return len(self.results)

    @property
    def frontiers_pruned(self) -> int:
        return self.frontiers_recorded - len(self.results)

    @property
    def violations(self) -> list[FrontierResult]:
        return [r for r in self.results if r.status == "violation"]

    @property
    def errors(self) -> list[FrontierResult]:
        return [r for r in self.results if r.status in ("error", "no-crash")]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.errors

    def describe(self) -> str:
        from .report import render_report

        return render_report(self)


def explore_frontier(target: str, mode_value: str, frontier: Frontier,
                     provenance: dict | None = None) -> FrontierResult:
    """Crash ``target`` at one frontier, recover, evaluate invariants.

    Module-level and picklable (multiprocessing fan-out), and the direct
    implementation of a ``--frontier`` reproducer: the outcome is a pure
    function of the arguments.  ``provenance`` (the generating seed/config
    when a generator produced this crash state) rides along on the result
    and the recovery report, so failures can print exact reproducers
    without re-exploring.
    """
    provenance = dict(provenance or {})

    def result(status: str, verdicts=(), error: str = "") -> FrontierResult:
        return FrontierResult(frontier, status, list(verdicts), error,
                              provenance=provenance)

    mode = Mode(mode_value)
    oracle = make_oracle(target)
    system = oracle.build_system(mode)
    injector = CrashInjector(system.machine)
    observation = RunObservation()
    system.events.subscribe(observation)
    if frontier.mechanism == "event":
        injector.arm_at_frontier(frontier.value)
    elif frontier.mechanism == "threads":
        injector.arm(frontier.value)
    else:
        return result("error",
                      error=f"unknown mechanism {frontier.mechanism!r}")
    crashed = False
    try:
        oracle.execute(system, mode, injector)
    except SimulatedCrash:
        crashed = True
    except Exception as exc:
        return result("error", error=f"run raised {type(exc).__name__}: {exc}")
    finally:
        injector.disarm()
        system.events.unsubscribe(observation)
    if not crashed:
        # A deterministic replay must crash where the reference run said it
        # would; reaching completion means determinism itself broke.
        return result("no-crash", error="armed frontier never fired")
    system.machine.drop_volatile_regions()
    try:
        oracle.recover(system, mode,
                       provenance={**provenance,
                                   "frontier": frontier.spec()}
                       if provenance else None)
    except Exception as exc:
        return result("error",
                      error=f"recovery raised {type(exc).__name__}: {exc}")
    try:
        checks = normalize_invariants(
            oracle.declare_invariants(system, mode, observation))
    except Exception as exc:
        return result(
            "error",
            error=f"declare_invariants raised {type(exc).__name__}: {exc}")
    verdicts = [check.evaluate() for check in checks]
    status = "ok" if all(v.ok for v in verdicts) else "violation"
    return result(status, verdicts)


class CrashExplorer:
    """Record a target's frontiers, then crash it at every one."""

    def __init__(self, target: str, mode: Mode = Mode.GPM,
                 max_frontiers: int = DEFAULT_MAX_FRONTIERS,
                 window_samples: int = 3, jobs: int = 1,
                 provenance: dict | None = None) -> None:
        self.target = target
        self.mode = mode
        self.max_frontiers = max_frontiers
        self.window_samples = window_samples
        self.jobs = max(1, jobs)
        #: Generating coordinates (litmus seed/config) stamped onto every
        #: FrontierResult and RecoveryReport this exploration produces.
        self.provenance = dict(provenance or {})

    def record(self) -> list[Frontier]:
        """One uninjected reference run, observed end to end."""
        oracle = make_oracle(self.target)
        system = oracle.build_system(self.mode)
        recorder = FrontierRecorder(window_samples=self.window_samples)
        system.events.subscribe(recorder.observe)
        try:
            injector = recorder if oracle.supports_thread_injection else None
            oracle.execute(system, self.mode, injector)
        finally:
            system.events.unsubscribe(recorder.observe)
        return recorder.frontiers()

    def explore(self) -> ExploreReport:
        from ..experiments.runner import fan_out

        frontiers = self.record()
        chosen = prune_frontiers(frontiers, self.max_frontiers)
        args = [(self.target, self.mode.value, f, self.provenance)
                for f in chosen]
        results = fan_out(explore_frontier, args, self.jobs)
        return ExploreReport(
            target=self.target, mode=self.mode,
            frontiers_recorded=len(frontiers), results=results,
            provenance=dict(self.provenance),
        )


def explore(target: str, mode: Mode = Mode.GPM,
            max_frontiers: int = DEFAULT_MAX_FRONTIERS,
            window_samples: int = 3, jobs: int = 1) -> ExploreReport:
    """Convenience wrapper: record + prune + explore, one call."""
    return CrashExplorer(target, mode, max_frontiers,
                         window_samples, jobs).explore()
