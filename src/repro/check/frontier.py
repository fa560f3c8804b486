"""Crash-frontier taxonomy: where can a crash land that matters?

A *frontier* is one semantically distinct crash state, named by a
deterministic replay coordinate:

* ``mechanism="event"``: the 0-based ordinal of a frontier-tagged event on
  the bus (every event class with a non-``None`` ``frontier_kind``, see
  :mod:`repro.sim.events`).  Replayed with
  :meth:`repro.sim.crash.CrashInjector.arm_at_frontier` - the crash fires
  during emission, before the event's persistence side effect applies.
* ``mechanism="threads"``: a cumulative retired-thread count, replayed with
  :meth:`repro.sim.crash.CrashInjector.arm`.  These cover the *unfenced
  windows* between frontier events, where some threads of a kernel have
  issued stores that no drain round has yet delivered.

Thread counts alone cannot express "after this warp's drain round was
delivered but before the next" (delivery happens between ``advance`` calls),
and event ordinals alone cannot express "midway through a warp's threads";
the two mechanisms together enumerate every distinct state the simulated
hardware can be killed in.

The :class:`FrontierRecorder` watches one uninjected reference run (as a bus
subscriber and as a passive stand-in for the workload's ``crash_injector``)
and emits the full frontier list; :func:`prune_frontiers` then bounds the
exploration budget while keeping every frontier *kind* represented, by
deterministic striding - never by random sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Frontier:
    """One distinct crash state, named by its replay coordinate."""

    mechanism: str      # "event" | "threads"
    value: int          # event ordinal, or cumulative retired-thread count
    kind: str           # frontier taxonomy bucket ("fence", "warp-drain", ...)
    description: str = ""
    #: What a crash here leaves, taken by the recorder's ``snapshot`` as
    #: the event went by (event frontiers of a census run only); ``None``
    #: means the state must be replayed.  Not part of the coordinate: it
    #: takes no part in equality, hashing or ``repr``.
    state: object = field(default=None, compare=False, repr=False)

    def spec(self) -> str:
        """The ``--frontier`` CLI spec that replays this exact crash."""
        return f"{self.mechanism}:{self.value}"


#: Kind assigned to thread-count frontiers inside unfenced windows.
UNFENCED_WINDOW = "unfenced-window"


def format_frontier(frontier: Frontier) -> str:
    extra = f" ({frontier.description})" if frontier.description else ""
    return f"{frontier.spec()} [{frontier.kind}]{extra}"


def parse_frontier(spec: str) -> Frontier:
    """Parse an ``event:17`` / ``threads:113`` reproducer spec."""
    mechanism, _, raw = spec.partition(":")
    if mechanism not in ("event", "threads") or not raw:
        raise ValueError(
            f"bad frontier spec {spec!r}: expected 'event:N' or 'threads:N'"
        )
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"bad frontier spec {spec!r}: {raw!r} is not an int") from exc
    if value < 0:
        raise ValueError(f"bad frontier spec {spec!r}: ordinal must be >= 0")
    kind = UNFENCED_WINDOW if mechanism == "threads" else "replay"
    return Frontier(mechanism, value, kind, "replayed from spec")


class FrontierRecorder:
    """Observe one reference run and enumerate its crash frontiers.

    Subscribe it to the machine's event bus *and* pass it wherever the
    workload accepts a ``crash_injector`` (it implements only the passive
    half of the injector interface, ``advance`` and ``cuts_warp``, and
    never crashes):

        recorder = FrontierRecorder()
        system.events.subscribe(recorder.observe)
        workload.run(mode, system=system, crash_injector=recorder)
        frontiers = recorder.frontiers()

    Every frontier-tagged event becomes one ``event`` frontier at its
    ordinal.  Between consecutive frontier events, the distinct cumulative
    retired-thread counts form an unfenced window; up to ``window_samples``
    representative counts per window (first, middle, last - deterministic)
    become ``threads`` frontiers.

    With a ``snapshot`` callable, every event frontier carries
    ``snapshot()`` as its :attr:`Frontier.state`, taken as the event is
    emitted.  An ``arm_at_frontier`` crash fires at that same moment,
    before the event's side effect, so a snapshot of the durable images
    (:class:`repro.check.census.ImageCensus`) is the crash state of that
    frontier without a replay.
    """

    def __init__(self, window_samples: int = 3, snapshot=None) -> None:
        if window_samples < 1:
            raise ValueError("window_samples must be >= 1")
        self.window_samples = window_samples
        self._snapshot = snapshot
        self._event_frontiers: list[Frontier] = []
        self._thread_frontiers: list[Frontier] = []
        self._ordinal = 0
        self._threads_seen = 0
        self._window: list[int] = []
        self._seen_thread_values: set[int] = set()
        self._crashed = False

    # -- the two observation channels ------------------------------------

    def cuts_warp(self, n_threads: int) -> bool:
        """Passive ``crash_injector`` hook: never crashes, so never cuts a
        warp.  Recorded launches take the warp lane, whose plain warps
        report one-thread retirements, so every window holds the counts
        the scalar lane produces."""
        return False

    def advance(self, newly_retired: int) -> None:
        """Passive ``crash_injector`` hook: record, never crash."""
        self._threads_seen += newly_retired
        if self._threads_seen not in self._seen_thread_values:
            self._seen_thread_values.add(self._threads_seen)
            self._window.append(self._threads_seen)

    def observe(self, ts: float, event) -> None:
        """Event-bus subscriber: one frontier per frontier-tagged event."""
        if self._crashed:
            return
        if type(event).etype == "crash":
            self._crashed = True
            return
        kind = type(event).frontier_kind
        if kind is None:
            return
        self._close_window()
        state = self._snapshot() if self._snapshot is not None else None
        self._event_frontiers.append(Frontier(
            "event", self._ordinal, kind, type(event).etype, state
        ))
        self._ordinal += 1

    def _close_window(self) -> None:
        """Sample the unfenced thread window accumulated since the last
        frontier event (first, middle, last distinct counts)."""
        window = self._window
        if window:
            picks = {window[0], window[len(window) // 2], window[-1]}
            if self.window_samples > 3 and len(window) > 3:
                stride = max(1, len(window) // self.window_samples)
                picks.update(window[::stride][: self.window_samples])
            for count in sorted(picks)[: self.window_samples]:
                self._thread_frontiers.append(Frontier(
                    "threads", count, UNFENCED_WINDOW,
                    f"before frontier event {self._ordinal}"
                ))
            self._window = []

    # -- results ----------------------------------------------------------

    def frontiers(self) -> list[Frontier]:
        """All recorded frontiers, events first, in deterministic order."""
        self._close_window()
        return list(self._event_frontiers) + list(self._thread_frontiers)

    @property
    def event_count(self) -> int:
        return self._ordinal


def prune_frontiers(frontiers: list[Frontier],
                    max_frontiers: int) -> list[Frontier]:
    """Bound the exploration budget, deterministically and representatively.

    Keeps every frontier when the budget allows; otherwise stride-samples
    *within each kind* so that no taxonomy bucket disappears, always
    retaining each kind's first and last frontier (the boundary states most
    likely to differ).  Pure index arithmetic - no randomness - so the same
    input always prunes to the same set.
    """
    if max_frontiers <= 0 or len(frontiers) <= max_frontiers:
        return list(frontiers)
    by_kind: dict[str, list[Frontier]] = {}
    for f in frontiers:
        by_kind.setdefault(f.kind, []).append(f)
    kinds = sorted(by_kind)
    # Budget per kind, proportional to its population, at least 1 each.
    total = len(frontiers)
    budget = {k: max(1, (max_frontiers * len(by_kind[k])) // total)
              for k in kinds}
    # Distribute any slack to the largest kinds, deterministically.
    slack = max_frontiers - sum(budget.values())
    for k in sorted(kinds, key=lambda k: -len(by_kind[k])):
        if slack <= 0:
            break
        give = min(slack, len(by_kind[k]) - budget[k])
        budget[k] += give
        slack -= give
    # The 1-per-kind floor can overshoot a tight budget; trim the largest
    # allocations back (never below 1) until the budget holds.  Only when
    # there are more kinds than budget does the floor win over the cap.
    over = sum(budget.values()) - max_frontiers
    while over > 0:
        k = max(kinds, key=lambda k: (budget[k], len(by_kind[k]), k))
        if budget[k] <= 1:
            break
        budget[k] -= 1
        over -= 1
    kept: list[Frontier] = []
    for k in kinds:
        group = by_kind[k]
        n = min(budget[k], len(group))
        if n >= len(group):
            kept.extend(group)
            continue
        if n == 1:
            kept.append(group[0])
            continue
        picks = {0, len(group) - 1}
        step = (len(group) - 1) / (n - 1)
        for i in range(1, n - 1):
            picks.add(round(i * step))
        kept.extend(group[i] for i in sorted(picks)[:n])
    # Preserve the original recording order for readable reports.
    order = {id(f): i for i, f in enumerate(frontiers)}
    kept.sort(key=lambda f: order[id(f)])
    return kept
