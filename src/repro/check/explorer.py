"""The exploration loop: crash at every frontier, recover, judge.

One exploration is a pure function of ``(target, mode, frontier)``: the
crash state at the frontier, :class:`~repro.core.recovery.RecoveryManager`,
invariants.  The crash state comes from one of two places:

* **the census** - :meth:`CrashExplorer.record` takes an
  :class:`~repro.check.census.ImageCensus` of its reference run, so every
  recorded *event* frontier carries the durable images, the PM file
  namespace and the :class:`RunObservation` prefix a crash there leaves.
  :func:`explore_frontier` powers a fresh system up over that durable
  state alone and recovers it; nothing of the run is re-executed.
* **a replay** - a fresh system, a deterministic re-run to the frontier,
  ``machine.crash()``.  ``threads:`` frontiers (the census has no snapshot
  inside an unfenced window) and ``--frontier`` reproducers (a parsed
  spec carries no census) take this path, as does the differential guard
  that checks the census against it.

Either way the oracle is re-attached to the crashed system
(:meth:`CrashOracle.attach`) and never reads the Python objects of the run
that crashed, so both paths judge the same durable state the same way.
:func:`explore_frontier` is the module-level, picklable unit of work: the
multiprocessing fan-out dispatches replays to it, and the CLI's
``--frontier`` flag calls it directly to replay one reported violation.
Census states are judged in-process and never pickled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.crash import CrashInjector, SimulatedCrash
from ..workloads.base import Mode
from .census import DurableImage, ImageCensus
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


@dataclass(frozen=True, eq=False)
class CensusState:
    """The crash state of one recorded event frontier."""

    target: str
    mode: str
    image: DurableImage
    observation: RunObservation


def _replay(oracle, mode: Mode, frontier: Frontier):
    """Re-run a fresh system to ``frontier`` and crash it there.

    Returns ``(system, observation, None)`` with the volatile regions
    dropped, or ``(None, None, (status, error))`` when the replay did not
    crash where it was armed to.
    """
    system = oracle.build_system(mode)
    injector = CrashInjector(system.machine)
    observation = RunObservation()
    system.events.subscribe(observation)
    if frontier.mechanism == "event":
        injector.arm_at_frontier(frontier.value)
    elif frontier.mechanism == "threads":
        injector.arm(frontier.value)
    else:
        return None, None, ("error",
                            f"unknown mechanism {frontier.mechanism!r}")
    try:
        oracle.execute(system, mode, injector)
    except SimulatedCrash:
        pass
    except Exception as exc:
        return None, None, ("error",
                            f"run raised {type(exc).__name__}: {exc}")
    else:
        # A deterministic replay must crash where the reference run said
        # it would; reaching completion means determinism itself broke.
        return None, None, ("no-crash", "armed frontier never fired")
    finally:
        injector.disarm()
        system.events.unsubscribe(observation)
    system.machine.drop_volatile_regions()
    return system, observation, None


def explore_frontier(target: str, mode_value: str, frontier: Frontier,
                     provenance: dict | None = None) -> FrontierResult:
    """Crash ``target`` at one frontier, recover, evaluate invariants.

    A frontier recorded by :meth:`CrashExplorer.record` carries its crash
    state (:class:`CensusState`): a fresh system is powered up over it and
    nothing is re-run.  Any other frontier - ``threads:``, or a parsed
    ``--frontier`` spec - is replayed on a fresh system.  Module-level and
    picklable (multiprocessing fan-out), and the direct implementation of
    a ``--frontier`` reproducer: the outcome is a pure function of the
    arguments.  ``provenance`` (the generating seed/config when a
    generator produced this crash state) rides along on the result and
    the recovery report, so failures can print exact reproducers without
    re-exploring.
    """
    provenance = dict(provenance or {})

    def result(status: str, error: str = "", verdicts=()) -> FrontierResult:
        return FrontierResult(frontier, status, list(verdicts), error,
                              provenance=provenance)

    mode = Mode(mode_value)
    oracle = make_oracle(target)
    state = frontier.state
    if state is not None:
        if (state.target, state.mode) != (target, mode_value):
            raise ValueError(
                f"frontier {frontier.spec()} was recorded for {state.target} "
                f"under {state.mode}, not {target} under {mode_value}")
        system = oracle.build_system(mode)
        state.image.load_into(system)
        observation = state.observation
    else:
        system, observation, failure = _replay(oracle, mode, frontier)
        if failure is not None:
            return result(*failure)
    oracle.attach(system, mode)
    try:
        oracle.recover(system, mode,
                       provenance={**provenance,
                                   "frontier": frontier.spec()}
                       if provenance else None)
    except Exception as exc:
        return result("error", f"recovery raised {type(exc).__name__}: {exc}")
    try:
        checks = normalize_invariants(
            oracle.declare_invariants(system, mode, observation))
    except Exception as exc:
        return result(
            "error", f"declare_invariants raised {type(exc).__name__}: {exc}")
    verdicts = [check.evaluate() for check in checks]
    status = "ok" if all(v.ok for v in verdicts) else "violation"
    return result(status, verdicts=verdicts)


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
        """One uninjected reference run, observed end to end.

        Every event frontier carries its :class:`CensusState`.
        """
        oracle = make_oracle(self.target)
        system = oracle.build_system(self.mode)
        images = ImageCensus(system.machine, system.fs)
        observation = RunObservation()

        def snapshot() -> CensusState:
            return CensusState(self.target, self.mode.value, images(),
                               observation.prefix())

        recorder = FrontierRecorder(window_samples=self.window_samples,
                                    snapshot=snapshot)
        # The observation counts each event before the snapshot is taken,
        # as a replay's observation counts the event its crash fires on.
        system.events.subscribe(observation)
        system.events.subscribe(recorder.observe)
        try:
            injector = recorder if oracle.supports_thread_injection else None
            oracle.execute(system, self.mode, injector)
        finally:
            system.events.unsubscribe(recorder.observe)
            system.events.unsubscribe(observation)
        return recorder.frontiers()

    def explore(self) -> ExploreReport:
        from ..experiments.runner import fan_out

        frontiers = self.record()
        chosen = prune_frontiers(frontiers, self.max_frontiers)
        # Replays fan out; census states are judged here, never pickled.
        replayed = iter(fan_out(
            explore_frontier,
            [(self.target, self.mode.value, f, self.provenance)
             for f in chosen if f.state is None],
            self.jobs))
        results = [next(replayed) if f.state is None else
                   explore_frontier(self.target, self.mode.value, f,
                                    self.provenance)
                   for f in chosen]
        return ExploreReport(
            target=self.target, mode=self.mode,
            frontiers_recorded=len(frontiers), results=results,
            provenance=dict(self.provenance),
        )


@dataclass
class ImageCount:
    """How many distinct durable images a target's crash states hold."""

    target: str
    mode: Mode
    event_states: int
    thread_states: int
    #: content-distinct durable images over every crash state
    distinct: int
    #: distinct images that no event frontier's census state holds
    thread_only: int

    @property
    def states(self) -> int:
        return self.event_states + self.thread_states

    def describe(self) -> str:
        from .report import render_image_count

        return render_image_count(self)


def count_images(target: str, mode: Mode = Mode.GPM,
                 max_frontiers: int = DEFAULT_MAX_FRONTIERS,
                 window_samples: int = 3) -> ImageCount:
    """Count the distinct durable images among the explored crash states.

    Event frontiers read theirs from the census; each ``threads:``
    frontier is replayed and its crashed machine snapshotted the same way.
    Images are compared by content (region names, bytes, file names),
    before recovery.
    """
    explorer = CrashExplorer(target, mode, max_frontiers, window_samples)
    chosen = prune_frontiers(explorer.record(), max_frontiers)
    oracle = make_oracle(target)
    digests: dict = {}
    event_keys, thread_keys = set(), set()
    n_threads = 0
    for frontier in chosen:
        if frontier.state is not None:
            event_keys.add(frontier.state.image.key(digests))
            continue
        n_threads += 1
        system, _observation, failure = _replay(oracle, mode, frontier)
        if failure is not None:
            raise RuntimeError(f"{target} {frontier.spec()}: {failure[1]}")
        image = ImageCensus(system.machine, system.fs)()
        thread_keys.add(image.key(digests))
    return ImageCount(target, mode, len(chosen) - n_threads, n_threads,
                      len(event_keys | thread_keys),
                      len(thread_keys - event_keys))


def explore(target: str, mode: Mode = Mode.GPM,
            max_frontiers: int = DEFAULT_MAX_FRONTIERS,
            window_samples: int = 3, jobs: int = 1) -> ExploreReport:
    """Convenience wrapper: record + prune + explore, one call."""
    return CrashExplorer(target, mode, max_frontiers,
                         window_samples, jobs).explore()
