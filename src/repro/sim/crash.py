"""Crash injection for recoverability stress tests.

Section 6.2 of the paper stress-tests recovery by injecting faults at random
points during kernel execution with NVBitFI, a binary-instrumentation fault
injector.  Our analogue supports two arming mechanisms:

**Thread-count arming** (the original NVBitFI-style path) hooks the GPU
engine's per-thread retirement: the injector is armed with a *crash point*
(a count of thread completions, optionally chosen at random), and when the
kernel engine crosses it the machine crashes mid-kernel - threads already
retired keep whatever they persisted, in-flight unfenced stores are lost,
and everything volatile disappears.  Launches stay on the warp lane; only
the warp the crash point cuts runs thread at a time (see
:meth:`CrashInjector.cuts_warp`).

**Frontier arming** (the systematic path used by :mod:`repro.check`) counts
*frontier-tagged events* on the machine's event bus instead: every event
class whose ``frontier_kind`` is non-``None`` (kernel launches, warp drain
rounds, fences, Optane epochs, DDIO toggles, ...) marks a semantically
distinct persistency boundary, and :meth:`CrashInjector.arm_at_frontier`
crashes the machine at the moment the N-th such event is emitted - *before*
its hardware side effect applies.  Because simulated runs are deterministic,
the event ordinal is an exact, replayable coordinate: re-arming the same
ordinal on a fresh system reproduces the identical crash state.  Frontier
arming needs no cooperation from the workload (no ``crash_injector``
plumbing) - any code path that emits events can be crashed.

Usage::

    injector = CrashInjector(machine, rng)
    injector.arm_random(max_threads=grid_threads)      # or .arm(n)
    # or: injector.arm_at_frontier(ordinal)
    try:
        gpu.launch(kernel, grid, block, args, crash_injector=injector)
    except SimulatedCrash as crash:
        ...   # machine.crash() has been applied; run recovery
        # crash.crash_after / crash.frontier_ordinal / crash.seed replay it

The injector counts retired threads cumulatively across launches, so one
armed point covers multi-kernel workloads.
"""

from __future__ import annotations

import numpy as np

from .machine import Machine


class SimulatedCrash(Exception):
    """Raised when an armed crash point is crossed.

    Carries everything needed to replay the exact same crash on a fresh
    system: ``crash_after`` (re-arm with :meth:`CrashInjector.arm`),
    ``frontier_ordinal`` (re-arm with
    :meth:`CrashInjector.arm_at_frontier`), and ``seed`` (the explicit seed
    handed to :meth:`CrashInjector.arm_random`, if any).
    """

    def __init__(self, threads_retired: int, *, crash_after: int | None = None,
                 frontier_ordinal: int | None = None, frontier_kind: str | None = None,
                 seed: int | None = None) -> None:
        if frontier_ordinal is not None:
            what = f"at frontier event #{frontier_ordinal}"
            if frontier_kind:
                what += f" ({frontier_kind})"
        else:
            what = f"after {threads_retired} threads retired"
        super().__init__(f"simulated crash {what}")
        self.threads_retired = threads_retired
        #: the armed thread-count crash point (replay: ``arm(crash_after)``)
        self.crash_after = crash_after
        #: the armed frontier-event ordinal (replay: ``arm_at_frontier(n)``)
        self.frontier_ordinal = frontier_ordinal
        #: ``frontier_kind`` of the event the crash fired on, if any
        self.frontier_kind = frontier_kind
        #: explicit seed given to ``arm_random``, if any (replayability)
        self.seed = seed


class CrashInjector:
    """Arms and fires mid-kernel crashes on a machine."""

    def __init__(self, machine: Machine, rng: np.random.Generator | None = None) -> None:
        self._machine = machine
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._crash_after: int | None = None
        self._frontier_after: int | None = None
        self._observing = False
        self._seed: int | None = None
        self.fired = False
        #: threads retired since arming, cumulative across kernel launches
        self.threads_seen = 0
        #: frontier-tagged events observed since arming (frontier mode)
        self.frontier_events_seen = 0

    @property
    def armed(self) -> bool:
        return (self._crash_after is not None
                or self._frontier_after is not None) and not self.fired

    def cuts_warp(self, n_threads: int) -> bool:
        """Whether the armed thread-count crash fires before the last of
        the next ``n_threads`` one-thread retirements.

        :meth:`~repro.gpu.device.Gpu.launch` asks before each plain warp
        and runs only a warp cut this way thread at a time; every other
        warp takes the warp lane and reports ``n_threads`` one-thread
        retirements, so a crash on a warp's last thread fires in the same
        :meth:`advance` on either lane.  Never true for frontier arming,
        which fires on bus events both lanes emit identically.
        """
        if self.fired or self._crash_after is None:
            return False
        return n_threads > 1 and self._crash_after - self.threads_seen < n_threads

    @property
    def crash_after(self) -> int | None:
        return self._crash_after

    # -- arming ----------------------------------------------------------

    def arm(self, crash_after_threads: int) -> None:
        """Crash once ``crash_after_threads`` threads have retired.

        The count is cumulative across kernel launches from the moment of
        arming, so a crash point can land in any launch of a multi-kernel
        workload (as NVBitFI's random injection would).
        """
        if crash_after_threads < 0:
            raise ValueError("crash point must be non-negative")
        self._disarm_observer()
        self._crash_after = crash_after_threads
        self._frontier_after = None
        self._seed = None
        self.fired = False
        self.threads_seen = 0
        self.frontier_events_seen = 0

    def arm_random(self, max_threads: int, seed: int | None = None) -> int:
        """Arm a uniformly random crash point in ``[0, max_threads)``.

        With an explicit ``seed`` the chosen point is a pure function of the
        seed (replayable from a failure report); otherwise the injector's
        own generator draws it.  Either way the chosen point is exposed as
        :attr:`crash_after` and travels on the raised
        :class:`SimulatedCrash`, so a random failure is always replayable
        by re-arming the reported point with :meth:`arm`.
        """
        if max_threads <= 0:
            raise ValueError("max_threads must be positive")
        rng = self._rng if seed is None else np.random.default_rng(seed)
        point = int(rng.integers(0, max_threads))
        self.arm(point)
        self._seed = seed
        return point

    def arm_at_frontier(self, ordinal: int) -> None:
        """Crash at the moment the ``ordinal``-th frontier event is emitted.

        Counts events whose class has a non-``None`` ``frontier_kind`` (see
        :mod:`repro.sim.events`), 0-based, from the moment of arming.  The
        crash fires *during* emission - before the emitting hardware model
        applies the event's persistence side effect - so ordinal *n* means
        "everything before frontier event *n* happened, the event itself
        and everything after it did not".
        """
        if ordinal < 0:
            raise ValueError("frontier ordinal must be non-negative")
        self._disarm_observer()
        self._frontier_after = ordinal
        self._crash_after = None
        self._seed = None
        self.fired = False
        self.threads_seen = 0
        self.frontier_events_seen = 0
        self._machine.events.subscribe(self._observe)
        self._observing = True

    def disarm(self) -> None:
        self._crash_after = None
        self._frontier_after = None
        self._disarm_observer()

    def _disarm_observer(self) -> None:
        if self._observing:
            self._machine.events.unsubscribe(self._observe)
            self._observing = False

    # -- firing ----------------------------------------------------------

    def advance(self, newly_retired: int) -> None:
        """Called by the kernel engine; crashes the machine if due."""
        if self.fired:
            return
        self.threads_seen += newly_retired
        if self._crash_after is None:
            return
        if self.threads_seen >= self._crash_after:
            self.fired = True
            self._machine.crash()
            raise SimulatedCrash(self.threads_seen,
                                 crash_after=self._crash_after,
                                 seed=self._seed)

    def _observe(self, ts: float, event) -> None:
        """Event-bus subscriber backing :meth:`arm_at_frontier`."""
        if self.fired or self._frontier_after is None:
            return
        if type(event).frontier_kind is None:
            return
        ordinal = self.frontier_events_seen
        self.frontier_events_seen += 1
        if ordinal >= self._frontier_after:
            self.fired = True
            self._disarm_observer()
            self._machine.crash()
            raise SimulatedCrash(self.threads_seen,
                                 frontier_ordinal=ordinal,
                                 frontier_kind=type(event).frontier_kind)
