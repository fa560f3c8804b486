"""Persistency-litmus fuzzer: generated crash-consistency tests.

The hand-written oracles in :mod:`repro.check.oracles` validate fixed
recovery protocols; this module validates the *persistency models
themselves* the way the litmus-testing literature does ("Lost in
Interpretation"; Lin & Solihin's strict/epoch/relaxed design space): a
deterministic, seeded generator emits small racy kernels - 2-4 PM regions,
interleaved per-thread writes with fence/epoch/log placements drawn from a
grammar (plain writes, HCL-style logged writes, and the serving layer's
sharded-log insert where two log regions share one fence) - and for each
one an *outcome oracle* computes the machine-checkable set of post-crash
states the active model's ordering rules allow.

The oracle has two halves, both derived from one abstract interpretation of
the generated program (:func:`interpret`, a pure-Python mirror of the SIMT
engine's drain bookkeeping):

* a **frontier census**: the reference run must announce exactly the
  predicted number of ``warp-drain`` and ``epoch-boundary`` frontiers -
  this is what catches the ``"epoch-boundary"`` sentinel mutant, whose only
  symptom is a *missing* event;
* a **delivery-key prefix check** per crash state: every write gets a
  delivery key ``(flush, round)``; at any crash, the durable writes must
  form a key-prefix within each ordering scope the model declares
  (:meth:`~repro.sim.persistency.PersistencyModel.orders_rounds`: per
  thread; :meth:`~repro.sim.persistency.PersistencyModel.orders_epochs`:
  warp-wide; relaxed: none).  Configs whose deliveries park in the volatile
  LLC (:meth:`~repro.sim.persistency.PersistencyModel.durable_on_delivery`
  false) must instead show an *empty* durable set - the litmus writes are
  far too small to force capacity evictions.

The crash states at event frontiers come from the same reference run that
records the frontiers: an event frontier crashes while its event is
emitted, before its side effect, so the run snapshots every region's
durable image at each one (the chunk-shared **image census** of
:mod:`repro.check.census`, see :func:`record_frontiers`).  A frontier whose
snapshot is the same object as the last one judged reuses its verdicts.
Only thread-count frontiers and ``--frontier`` reproducers replay a crash
(:func:`crash_images`).

A :class:`LitmusExplorer` fans each generated test out across the full
config matrix - every registered persistency model x DDIO window on/off x
eADR - through the experiment engine's fork fan-out and disk cache
(:func:`repro.experiments.runner.run_litmus_batch`), then re-runs a slice
of the tests with each sentinel mutant armed
(:data:`~repro.sim.persistency.SENTINEL_MUTANTS`) and fails unless every
mutant is caught.  The hand-written oracle targets ride along as the
*seed corpus*: their recorded frontier counts are pinned
(:data:`SEED_CORPUS`) and broken-demo's planted bug must still be caught.

CLI: ``python -m repro check --litmus N --seed S``; every failure prints a
one-line reproducer (``--litmus-replay SEED:INDEX --litmus-config ...``).
See ``docs/crash-consistency.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..core.persist import persist_window
from ..sim.crash import CrashInjector, SimulatedCrash
from ..sim.persistency import (
    MODEL_REGISTRY,
    SENTINEL_MUTANTS,
    make_model,
    sentinel_mutant,
)
from ..system import System
from .census import DurableImage, ImageCensus
from .frontier import Frontier, FrontierRecorder, parse_frontier, prune_frontiers

#: Byte distance between generated write slots.  Wider than an LLC line (so
#: each write dirties its own line) and narrower than an XPLine (so merged
#: segments stay small and the adaptive model always stages them).
SLOT_STRIDE = 64

#: Size of each generated PM region: 512 slots, comfortably above the
#: largest slot count the grammar can allocate to one region (the
#: sharded-log production can land three write rounds on one region per
#: roll, so the old 256-slot regions no longer clear every test).
REGION_BYTES = 512 * SLOT_STRIDE

#: Delivery-round key of unfenced writes (the engine's implicit round).
IMPLICIT = 1 << 30

#: Default crash-exploration budget per (test, config) point, covering the
#: non-ordering frontier kinds; every warp-drain and epoch-boundary
#: frontier is always explored on top (see :func:`select_frontiers`).
DEFAULT_LITMUS_FRONTIERS = 8

#: Frontier counts of the hand-written oracle targets, promoted to the
#: fuzzer's seed corpus: a generator/bus refactor that silently shrinks the
#: explored crash space fails here (and in tests/check/test_frontier_pins).
SEED_CORPUS = {
    "prefix_sum": 184,
    "kvs": 111,
    "kvs-delete": 183,
    "db-update": 58,
    "checkpointed-dnn": 60,
    "hashmap": 93,
    "ring": 18,
    "broken-demo": 11,
}

#: The frontier at which broken-demo's planted fence-ordering bug is caught
#: (pinned by PR 2's CI job; the corpus stage replays it).
BROKEN_DEMO_FRONTIER = "event:4"


# ---------------------------------------------------------------------------
# the config matrix: model x DDIO window x eADR
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfigPoint:
    """One point of the litmus config matrix.

    ``model`` is a :data:`~repro.sim.persistency.MODEL_REGISTRY` name;
    ``window`` runs the kernel inside a persist window (DDIO off for models
    that toggle it); ``eadr`` lifts the model onto an eADR platform (the
    LLC joins the persistence domain), skipped for models that already are.
    """

    model: str
    window: bool
    eadr: bool

    def spec(self) -> str:
        """The ``--litmus-config`` string naming this point."""
        return (f"{self.model}:{'window' if self.window else 'nowindow'}"
                f":{'eadr' if self.eadr else 'adr'}")


def parse_config_point(spec: str) -> ConfigPoint:
    """Parse a ``model:window|nowindow:eadr|adr`` config spec."""
    parts = spec.split(":")
    known = ", ".join(sorted(MODEL_REGISTRY))
    if (len(parts) != 3 or parts[1] not in ("window", "nowindow")
            or parts[2] not in ("eadr", "adr")):
        raise ValueError(
            f"bad litmus config {spec!r}: expected "
            f"'<model>:window|nowindow:eadr|adr', <model> one of: {known}")
    if parts[0] not in MODEL_REGISTRY:
        raise ValueError(
            f"bad litmus config {spec!r}: unknown model {parts[0]!r} "
            f"(one of: {known})")
    return ConfigPoint(parts[0], parts[1] == "window", parts[2] == "eadr")


def config_matrix() -> list[ConfigPoint]:
    """Every registered model x window on/off x eADR on/off.

    The eADR axis is skipped for models whose persist domain already is the
    LLC - ``eadr=True`` on top of them would be the same point twice.
    """
    points = []
    for name in sorted(MODEL_REGISTRY):
        for window in (True, False):
            for eadr in (False, True):
                if eadr and MODEL_REGISTRY[name].eadr:
                    continue
                points.append(ConfigPoint(name, window, eadr))
    return points


def build_model(point: ConfigPoint):
    """A fresh model instance for one config point.

    The eADR axis shadows the class attributes on the instance (the LLC
    joins the persist domain, so windows no longer need the DDIO toggle) -
    exactly how ``EadrStrict`` relates to ``Strict``, but for any model.
    Instances are built in-process from the picklable spec strings, never
    shipped across the pool.
    """
    model = make_model(point.model)
    if point.eadr and not model.eadr:
        model.eadr = True
        model.toggles_ddio = False
    return model


# ---------------------------------------------------------------------------
# the generator: seeded tests drawn from a small grammar
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LitmusTest:
    """One generated litmus program.

    ``phases`` is a tuple of phases separated by block-wide barriers; each
    phase is a tuple of warp-uniform steps every thread executes in order:

    * ``("write", region, base_slot, value_base)`` - thread *t* stores the
      unique nonzero ``uint32`` ``value_base + t + 1`` to slot
      ``base_slot + t`` of the region (slots are :data:`SLOT_STRIDE` bytes
      apart, so no two writes share an LLC line);
    * ``("fence",)`` - thread-scope ``__threadfence_system()``.

    ``bulk``, when set, is ``(src_region, n_slots)``: after the kernel
    retires, a ``stream_copy`` (the zero-copy bulk-transfer descriptor)
    copies the first ``n_slots`` slots of ``src_region`` into a dedicated
    ``/pm/litmus-bulk`` PM region with ``persist=True``, inside the persist
    window when one is open.  The copy is cross-region logging shaped - a
    whole-range replica of journalled state - and is judged purely by value
    integrity: every durable destination word must be 0 or the source
    slot's unique expected value, which is sound at every crash point under
    every model (the copy participates in no ordering scope).

    Warp-uniform steps keep the warp and scalar lanes trivially equivalent
    (the parity satellite) and make the outcome set exactly computable.
    """

    seed: int
    index: int
    n_threads: int
    n_regions: int
    phases: tuple
    bulk: tuple | None = None

    def payload(self) -> dict:
        """JSON-serializable (and picklable, and cache-keyable) form."""
        out = {
            "seed": self.seed, "index": self.index,
            "n_threads": self.n_threads, "n_regions": self.n_regions,
            "phases": [[list(step) for step in phase] for phase in self.phases],
        }
        if self.bulk is not None:
            out["bulk"] = list(self.bulk)
        return out

    @classmethod
    def from_payload(cls, payload: dict) -> "LitmusTest":
        bulk = payload.get("bulk")  # absent in pre-bulk cached payloads
        return cls(
            seed=payload["seed"], index=payload["index"],
            n_threads=payload["n_threads"], n_regions=payload["n_regions"],
            phases=tuple(tuple(tuple(step) for step in phase)
                         for phase in payload["phases"]),
            bulk=None if bulk is None else tuple(bulk),
        )

    def describe(self) -> str:
        steps = sum(len(p) for p in self.phases)
        tail = ""
        if self.bulk is not None:
            tail = f", bulk-copy r{self.bulk[0]}x{self.bulk[1]}"
        return (f"litmus {self.seed}:{self.index} - {self.n_regions} regions, "
                f"{self.n_threads} threads, {len(self.phases)} phases, "
                f"{steps} steps{tail}")


def generate_test(seed: int, index: int) -> LitmusTest:
    """One deterministic litmus test; a pure function of ``(seed, index)``."""
    rng = random.Random(f"litmus:{seed}:{index}")
    n_regions = rng.randint(2, 4)
    n_threads = rng.choice((4, 6, 8))
    n_phases = rng.randint(1, 3)
    cursors = [0] * n_regions
    ordinal = 0
    phases = []
    for p in range(n_phases):
        steps: list[tuple] = []

        def write_step(region: int) -> None:
            nonlocal ordinal
            steps.append(("write", region, cursors[region], ordinal * 256))
            cursors[region] += n_threads
            ordinal += 1

        if p == 0:
            # Forced prefix: two fenced write rounds, so every test gives
            # the fence-order sentinel at least two ordered rounds in one
            # warp flush - the states where delivery order is observable.
            write_step(0)
            steps.append(("fence",))
            write_step(1 % n_regions)
            steps.append(("fence",))
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.5:
                write_step(rng.randrange(n_regions))
            elif roll < 0.7:
                # HCL-style logged write: journal to region 0, fence the
                # log entry durable, then write the data it covers.
                write_step(0)
                steps.append(("fence",))
                write_step(rng.randrange(1, n_regions))
            elif roll < 0.85:
                # Sharded-log insert (the serving layer's idiom): two
                # shards journal to their own log regions, one fence
                # makes both entries durable, then the covered data
                # writes land - cross-shard logged writes in a batch
                # window share the fence, never the log.
                write_step(0)
                write_step(1 % n_regions)
                steps.append(("fence",))
                write_step(rng.randrange(n_regions))
                write_step(rng.randrange(n_regions))
            else:
                steps.append(("fence",))
        if not steps:
            write_step(rng.randrange(n_regions))
        phases.append(tuple(steps))
    # Bulk-copy production: a post-kernel stream_copy replicates one
    # written region's slot prefix into /pm/litmus-bulk - the zero-copy
    # transfer descriptor under crash injection (its fence and Optane
    # epochs add frontier events of their own).
    bulk = None
    if rng.random() < 0.35:
        written = [r for r in range(n_regions) if cursors[r] > 0]
        src = rng.choice(written)
        bulk = (src, cursors[src])
    return LitmusTest(seed=seed, index=index, n_threads=n_threads,
                      n_regions=n_regions, phases=tuple(phases), bulk=bulk)


def generate_tests(seed: int, count: int) -> list[LitmusTest]:
    return [generate_test(seed, i) for i in range(count)]


# ---------------------------------------------------------------------------
# kernels: scalar reference + registered warp implementation
# ---------------------------------------------------------------------------


def build_kernels(test: LitmusTest, regions: list):
    """The scalar kernel for ``test`` (with its warp twin registered).

    Multi-phase tests compile to generator kernels - each phase edge is a
    block-wide barrier, which under epoch persistency closes the epoch.
    """
    phases = test.phases

    def run_phase(ctx, phase) -> None:
        t = ctx.thread_in_block
        for step in phase:
            if step[0] == "write":
                _, r, base, vbase = step
                ctx.store(regions[r], (base + t) * SLOT_STRIDE,
                          vbase + t + 1, np.uint32)
            else:
                ctx.persist()

    def run_phase_warp(wctx, phase) -> None:
        t = wctx.thread_flats
        for step in phase:
            if step[0] == "write":
                _, r, base, vbase = step
                wctx.store(regions[r], (base + t) * SLOT_STRIDE,
                           (vbase + t + 1).astype(np.uint32), np.uint32)
            else:
                wctx.persist()

    from ..gpu.warp import vectorized_for

    if len(phases) == 1:
        def scalar_kernel(ctx):
            run_phase(ctx, phases[0])

        @vectorized_for(scalar_kernel)
        def warp_kernel(wctx):
            run_phase_warp(wctx, phases[0])
    else:
        def scalar_kernel(ctx):
            for p, phase in enumerate(phases):
                if p:
                    yield
                run_phase(ctx, phase)

        @vectorized_for(scalar_kernel)
        def warp_kernel(wctx):
            for p, phase in enumerate(phases):
                if p:
                    yield
                run_phase_warp(wctx, phases[p])

    return scalar_kernel


# ---------------------------------------------------------------------------
# the outcome oracle: abstract interpretation of the drain bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LitmusWrite:
    """One (step, thread) write of the plan, with its delivery key."""

    thread: int
    region: int
    slot: int
    value: int
    #: ``(flush, round)``: the barrier/retirement flush that delivers the
    #: write and the drain round it travels in (:data:`IMPLICIT` for
    #: unfenced writes).  Keys sort in delivery order within a scope.
    key: tuple


def interpret(test: LitmusTest, policy: str) -> tuple[list[LitmusWrite], int, int]:
    """Mirror the engine's drain bookkeeping for one generated program.

    Returns ``(plan, warp_drains, epoch_boundaries)``: every write with its
    delivery key, plus the exact number of ``warp-drain`` and
    ``epoch-boundary`` frontier events the reference run must announce
    under ``policy`` (the census the epoch-boundary mutant violates).
    """
    n = test.n_threads
    n_phases = len(test.phases)
    rounds = [0] * n                 # strict: per-thread fence counters
    epoch = 1                        # epoch: the engine's global epoch
    epoch_dirty = False
    pending: list[list[dict]] = [[] for _ in range(n)]
    buffer: dict[int, set[int]] = {}       # round -> regions buffered
    buffered: list[tuple[dict, int]] = []  # (write, round) awaiting flush
    done: list[LitmusWrite] = []
    warp_drains = 0
    boundaries = 0
    flush_idx = 0

    def buffer_thread(t: int, rnd: int) -> None:
        for w in pending[t]:
            buffer.setdefault(rnd, set()).add(w["region"])
            buffered.append((w, rnd))
        pending[t].clear()

    def do_flush() -> None:
        nonlocal warp_drains, flush_idx
        warp_drains += sum(len(regions) for regions in buffer.values())
        for w, rnd in buffered:
            done.append(LitmusWrite(w["thread"], w["region"], w["slot"],
                                    w["value"], (flush_idx, rnd)))
        buffer.clear()
        buffered.clear()
        flush_idx += 1

    for p, phase in enumerate(test.phases):
        for step in phase:
            if step[0] == "write":
                _, region, base, vbase = step
                for t in range(n):
                    pending[t].append({"thread": t, "region": region,
                                       "slot": base + t,
                                       "value": vbase + t + 1})
            else:  # fence
                if policy == "relaxed":
                    continue
                if policy == "epoch":
                    epoch_dirty = True
                    for t in range(n):
                        buffer_thread(t, epoch)
                else:
                    for t in range(n):
                        rounds[t] += 1
                        buffer_thread(t, rounds[t])
        if p == n_phases - 1:
            # Threads retire: unfenced stores move to the implicit round,
            # delivered after every fenced round of the final flush.
            for t in range(n):
                buffer_thread(t, IMPLICIT)
        do_flush()
        if policy == "epoch" and epoch_dirty:
            boundaries += 1
            epoch += 1
            epoch_dirty = False
    return done, warp_drains, boundaries


def select_frontiers(frontiers: list[Frontier],
                     max_frontiers: int) -> list[Frontier]:
    """The crash states one litmus point explores.

    Every ``warp-drain`` and ``epoch-boundary`` frontier is kept - those
    are exactly the states where drain-round delivery order is observable
    (the fence-order mutant lives *between* two drains of one flush, which
    proportional pruning could skip).  Everything else is bounded by the
    usual deterministic per-kind pruning.
    """
    core = [f for f in frontiers if f.kind in ("warp-drain", "epoch-boundary")]
    rest = [f for f in frontiers if f.kind not in ("warp-drain", "epoch-boundary")]
    keep = set(core) | set(prune_frontiers(rest, max_frontiers))
    return [f for f in frontiers if f in keep]


# ---------------------------------------------------------------------------
# executing one (test, config, mutant) point
# ---------------------------------------------------------------------------


def _build(test: LitmusTest, point: ConfigPoint):
    system = System(persistency=build_model(point))
    regions = [system.machine.alloc_pm(f"/pm/litmus{i}", REGION_BYTES)
               for i in range(test.n_regions)]
    if test.bulk is not None:
        # The bulk-copy destination rides at virtual index ``n_regions``
        # everywhere regions are enumerated (images, expected words).
        regions.append(system.machine.alloc_pm("/pm/litmus-bulk", REGION_BYTES))
    return system, regions


def _run(system, test: LitmusTest, regions, injector, window: bool) -> None:
    kernel = build_kernels(test, regions)

    def body() -> None:
        system.gpu.launch(kernel, 1, test.n_threads, crash_injector=injector)
        if test.bulk is not None:
            # Post-kernel bulk replication through the transfer descriptor;
            # frontier-armed injectors can fire on its fence/epoch events.
            src, n_slots = test.bulk
            system.gpu.stream_copy(regions[test.n_regions], 0, regions[src],
                                   0, n_slots * SLOT_STRIDE, persist=True)

    if window:
        with persist_window(system):
            body()
    else:
        body()


def _image_u32(buf: np.ndarray) -> np.ndarray:
    return buf.view(np.uint32)


def _expected_words(test: LitmusTest) -> dict[int, dict[int, int]]:
    """region -> {u32 word index -> expected value} over the whole test."""
    words_per_slot = SLOT_STRIDE // 4
    out: dict[int, dict[int, int]] = {r: {} for r in range(test.n_regions)}
    for phase in test.phases:
        for step in phase:
            if step[0] != "write":
                continue
            _, r, base, vbase = step
            for t in range(test.n_threads):
                out[r][(base + t) * words_per_slot] = vbase + t + 1
    if test.bulk is not None:
        # The bulk destination mirrors the source's slot prefix: a durable
        # destination word is valid iff it is 0 or the source slot's value.
        src, n_slots = test.bulk
        limit = n_slots * words_per_slot
        out[test.n_regions] = {word: value
                               for word, value in out[src].items()
                               if word < limit}
    return out


def _expected_images(expected: dict[int, dict[int, int]]) -> dict[int, np.ndarray]:
    """region -> u32 image of :func:`_expected_words`, 0 where unwritten."""
    out = {}
    for r, words in expected.items():
        img = np.zeros(REGION_BYTES // 4, dtype=np.uint32)
        img[list(words)] = list(words.values())
        out[r] = img
    return out


def _durable_gather(plan: list[LitmusWrite]) -> list[tuple]:
    """Per region: the plan positions, u32 word indices and values of its
    writes, so one gather per region reads which writes are durable."""
    words_per_slot = SLOT_STRIDE // 4
    out = []
    for r in sorted({w.region for w in plan}):
        pos = [i for i, w in enumerate(plan) if w.region == r]
        out.append((r, np.array(pos, dtype=np.intp),
                    np.array([plan[i].slot * words_per_slot for i in pos],
                             dtype=np.intp),
                    np.array([plan[i].value for i in pos], dtype=np.int64)))
    return out


def _state_violations(test: LitmusTest, point: ConfigPoint, model,
                      plan: list[LitmusWrite], images: dict[int, np.ndarray],
                      claim: str, expected: dict[int, dict[int, int]],
                      expected_images: dict[int, np.ndarray],
                      gather: list[tuple]) -> list[tuple[str, str]]:
    """Judge one post-crash (or completion) durable state.

    ``images`` maps region index to its u32 image; ``claim`` labels the
    state in violation details ("durable"/"visible").  ``expected``,
    ``expected_images`` and ``gather`` are the point's
    :func:`_expected_words`, :func:`_expected_images` and
    :func:`_durable_gather`, built once per point.  Returns
    ``(invariant-name, detail)`` pairs.
    """
    out: list[tuple[str, str]] = []
    # -- value integrity: a word is 0 or its unique assigned value --------
    for r, img in images.items():
        for word in np.flatnonzero((img != expected_images[r]) & (img != 0)):
            want = expected[r].get(int(word))
            got = int(img[word])
            if want is None:
                out.append(("litmus-value-integrity",
                            f"region {r} word {int(word)} is {got:#x} but "
                            f"was never written"))
            elif got != want:
                out.append(("litmus-value-integrity",
                            f"region {r} word {int(word)} is {got:#x}, "
                            f"expected {want:#x} or 0"))
    durable_arr = np.zeros(len(plan), dtype=bool)
    for r, pos, words, values in gather:
        durable_arr[pos] = images[r][words] == values
    durable = durable_arr.tolist()
    # -- persist-domain check: volatile deliveries must not survive -------
    if not model.durable_on_delivery(point.window):
        if model.adaptive and point.window:
            out.extend(_staged_flush_violations(test, plan, durable, claim))
        else:
            for i, w in enumerate(plan):
                if durable[i]:
                    out.append(("litmus-volatile-window",
                                f"write t{w.thread}->r{w.region}[{w.slot}] "
                                f"is {claim} but deliveries park in the "
                                f"volatile LLC under {point.spec()}"))
                    break
        return out
    # -- ordering: durable writes form a key-prefix within each scope -----
    if model.orders_rounds():
        scopes = [[i for i, w in enumerate(plan) if w.thread == t]
                  for t in range(test.n_threads)]
        name = "litmus-round-ordering"
    elif model.orders_epochs():
        scopes = [list(range(len(plan)))]
        name = "litmus-epoch-ordering"
    else:
        return out
    for scope in scopes:
        newest = max((plan[i].key for i in scope if durable[i]), default=None)
        if newest is None:
            continue
        for i in scope:
            if plan[i].key < newest and not durable[i]:
                w, n = plan[i], next(plan[j] for j in scope
                                     if durable[j] and plan[j].key == newest)
                out.append((name,
                            f"t{n.thread}->r{n.region}[{n.slot}] (round "
                            f"{'implicit' if n.key[1] == IMPLICIT else n.key[1]},"
                            f" flush {n.key[0]}) is {claim} but earlier "
                            f"t{w.thread}->r{w.region}[{w.slot}] (round "
                            f"{'implicit' if w.key[1] == IMPLICIT else w.key[1]},"
                            f" flush {w.key[0]}) is not"))
                break
    return out


def _staged_flush_violations(test: LitmusTest, plan: list[LitmusWrite],
                             durable: list[bool],
                             claim: str) -> list[tuple[str, str]]:
    """The adaptive-in-window outcome set.

    The adaptive model keeps DDIO on and stages the litmus fuzzer's small
    writes in the LLC, flushing each region's backlog as one contiguous
    range at window end (or at a direct write to that region - impossible
    here, every litmus store is 4 B).  A crash during that flush may land
    between regions, so the allowed states are: per region all-or-nothing,
    and the durable regions form a prefix of first-delivery order.
    """
    out: list[tuple[str, str]] = []
    by_region: dict[int, list[int]] = {}
    for i, w in enumerate(plan):
        by_region.setdefault(w.region, []).append(i)
    state: dict[int, bool] = {}
    for r, idxs in sorted(by_region.items()):
        flushed = [durable[i] for i in idxs]
        if any(flushed) and not all(flushed):
            w = plan[idxs[flushed.index(False)]]
            out.append(("litmus-staged-flush",
                        f"region {r}'s staged backlog flushed partially: "
                        f"t{w.thread}->r{w.region}[{w.slot}] is not {claim} "
                        f"but the flush covers the whole staged range"))
        else:
            state[r] = all(flushed) and bool(flushed)
    first_key = {r: min(plan[i].key for i in idxs)
                 for r, idxs in by_region.items()}
    for r, ok in state.items():
        if not ok:
            continue
        for other, key in first_key.items():
            if key < first_key[r] and state.get(other) is False:
                out.append(("litmus-staged-flush",
                            f"region {r} is {claim} but region {other}, "
                            f"staged earlier, is not - window-end flushes "
                            f"regions in first-delivery order"))
                break
    return out


def record_frontiers(test: LitmusTest, point: ConfigPoint, census: bool = True):
    """The uninjected reference run: its frontiers and final regions.

    With ``census``, every event frontier carries as its ``state`` the
    :class:`~repro.check.census.DurableImage` a crash there leaves - what
    :func:`crash_images` replays to get (read it with
    :func:`census_images`); consecutive frontiers with no durable change
    between them share one image object.
    """
    system, regions = _build(test, point)
    recorder = FrontierRecorder(
        window_samples=2,
        snapshot=ImageCensus(system.machine) if census else None)
    system.events.subscribe(recorder.observe)
    try:
        _run(system, test, regions, recorder, point.window)
    finally:
        system.events.unsubscribe(recorder.observe)
    return recorder.frontiers(), regions


def census_images(image: DurableImage) -> dict[int, np.ndarray]:
    """A census snapshot as the region-index -> u32 image map the judge
    reads (views of the shared chunks, not copies)."""
    return {i: _image_u32(image.region(name))
            for i, name in enumerate(image.region_names())}


def crash_images(test: LitmusTest, point: ConfigPoint,
                 frontier: Frontier) -> dict[int, np.ndarray] | None:
    """Crash a fresh system at one frontier; the durable u32 images.

    Returns ``None`` when the armed frontier never fired.  Every replay
    runs on the warp lane (every generated kernel has a twin); a
    thread-count frontier runs the warp it cuts thread at a time.  The
    reference path: the campaign reads event frontiers from the image
    census instead.
    """
    system, regions = _build(test, point)
    injector = CrashInjector(system.machine)
    if frontier.mechanism == "event":
        injector.arm_at_frontier(frontier.value)
    else:
        injector.arm(frontier.value)
    try:
        _run(system, test, regions, injector, point.window)
    except SimulatedCrash:
        return {i: _image_u32(r.persisted_view(np.uint8, 0, r.size)).copy()
                for i, r in enumerate(regions)}
    finally:
        injector.disarm()
    return None


def _replayed_violations(test: LitmusTest, point: ConfigPoint,
                         frontier: Frontier, judge) -> list[tuple[str, str]]:
    """Judge the durable state a replayed crash at ``frontier`` leaves
    (:func:`crash_images`, the reference path)."""
    if frontier.mechanism not in ("event", "threads"):
        return [("litmus-replay",
                 f"unknown frontier mechanism {frontier.mechanism!r}")]
    images = crash_images(test, point, frontier)
    if images is None:
        return [("litmus-determinism",
                 f"armed frontier {frontier.spec()} never fired")]
    return judge(images)


def execute_point(test_payload: dict, point_spec: str, mutant: str | None = None,
                  max_frontiers: int = DEFAULT_LITMUS_FRONTIERS,
                  frontier_spec: str | None = None) -> dict:
    """Run one litmus test at one config point; the pool's unit of work.

    Module-level, picklable, and a pure function of its arguments (the
    sentinel ``mutant`` ships by name and is armed only for this scope):
    one uninjected reference run (frontier recording + census + image
    census + completion checks), then a crash exploration of the recorded
    frontiers - all of them for the ordering-sensitive kinds, a pruned
    sample elsewhere, or exactly ``frontier_spec`` when replaying one
    reported violation.  Event frontiers are judged from the image census,
    once per distinct snapshot object; thread-count frontiers and
    ``frontier_spec`` are replayed.
    Returns a JSON-serializable verdict payload.
    """
    test = LitmusTest.from_payload(test_payload)
    point = parse_config_point(point_spec)
    model = build_model(point)
    plan, expect_drains, expect_bounds = interpret(test, model.fence_policy)
    violations: list[dict] = []

    def violate(frontier: str, name: str, detail: str) -> None:
        violations.append({"frontier": frontier, "name": name,
                           "detail": detail})

    with sentinel_mutant(mutant):
        # -- reference run: frontiers, census, completion -----------------
        # A reproducer replays its one crash (the reference path) and
        # reads no census.
        frontiers, regions = record_frontiers(
            test, point, census=frontier_spec is None)
        counts: dict[str, int] = {}
        for f in frontiers:
            counts[f.kind] = counts.get(f.kind, 0) + 1
        census = {
            "warp-drain": counts.get("warp-drain", 0),
            "epoch-boundary": counts.get("epoch-boundary", 0),
            "expect-warp-drain": expect_drains,
            "expect-epoch-boundary": expect_bounds,
        }
        if census["warp-drain"] != expect_drains:
            violate("reference", "litmus-census-warp-drain",
                    f"expected {expect_drains} warp-drain frontiers, "
                    f"recorded {census['warp-drain']}")
        if census["epoch-boundary"] != expect_bounds:
            violate("reference", "litmus-census-epoch-boundary",
                    f"expected {expect_bounds} epoch-boundary frontiers, "
                    f"recorded {census['epoch-boundary']}")
        visible = {i: _image_u32(r.visible[:r.size]).copy()
                   for i, r in enumerate(regions)}
        expected = _expected_words(test)
        expected_images = _expected_images(expected)
        for r, words in expected.items():
            for word, value in words.items():
                if int(visible[r][word]) != value:
                    violate("reference", "litmus-kernel-effect",
                            f"region {r} word {word} is "
                            f"{int(visible[r][word]):#x} after completion, "
                            f"expected {value:#x}")
        if point.window and (model.toggles_ddio or model.adaptive):
            # Window exit drains everything (DDIO-off delivery, or the
            # adaptive model's staged-backlog flush): all values durable.
            persisted = {i: _image_u32(r.persisted_view(np.uint8, 0, r.size))
                         for i, r in enumerate(regions)}
            for r, words in expected.items():
                for word, value in words.items():
                    if int(persisted[r][word]) != value:
                        violate("reference", "litmus-complete-durability",
                                f"region {r} word {word} not durable after "
                                f"the persist window closed")
        # -- crash exploration --------------------------------------------
        if frontier_spec is not None:
            chosen = [parse_frontier(frontier_spec)]
        else:
            chosen = select_frontiers(frontiers, max_frontiers)
        judge = partial(_state_violations, test, point, model, plan,
                        claim="durable", expected=expected,
                        expected_images=expected_images,
                        gather=_durable_gather(plan))
        judged: tuple = (None, [])
        for frontier in chosen:
            state = frontier.state
            if state is None:
                found = _replayed_violations(test, point, frontier, judge)
            else:
                if state is not judged[0]:  # a repeated snapshot: judged once
                    judged = state, judge(census_images(state))
                found = judged[1]
            for name, detail in found:
                violate(frontier.spec(), name, detail)

    return {
        "seed": test.seed, "index": test.index, "config": point.spec(),
        "mutant": mutant, "ok": not violations, "violations": violations,
        "frontiers_recorded": len(frontiers),
        "frontiers_explored": len(chosen), "census": census,
    }


# ---------------------------------------------------------------------------
# the seed corpus: today's hand-written oracle targets
# ---------------------------------------------------------------------------


def run_seed_corpus() -> list[dict]:
    """Pin the hand-written targets' crash spaces and the planted bug.

    Each target's recorded frontier count must match :data:`SEED_CORPUS`
    exactly (cheap: one reference run, no exploration), and broken-demo's
    fence-ordering bug must still be caught at its pinned frontier.
    """
    from .explorer import CrashExplorer, explore_frontier

    rows = []
    for target, expected in SEED_CORPUS.items():
        recorded = len(CrashExplorer(target).record())
        rows.append({
            "target": target, "expected": expected, "recorded": recorded,
            "ok": recorded == expected,
            "detail": "" if recorded == expected else
            f"frontier count drifted from the pinned {expected}",
        })
    result = explore_frontier("broken-demo", "gpm",
                              parse_frontier(BROKEN_DEMO_FRONTIER))
    rows.append({
        "target": f"broken-demo@{BROKEN_DEMO_FRONTIER}",
        "expected": "violation", "recorded": result.status,
        "ok": result.status == "violation",
        "detail": "; ".join(v.name for v in result.failed_verdicts)
        or "the planted bug went undetected",
    })
    return rows


# ---------------------------------------------------------------------------
# the explorer: tests x matrix x mutants through the experiment engine
# ---------------------------------------------------------------------------


@dataclass
class LitmusReport:
    """Outcome of one ``--litmus`` campaign."""

    seed: int
    count: int
    corpus: list[dict] = field(default_factory=list)
    matrix: list[dict] = field(default_factory=list)
    sentinels: dict = field(default_factory=dict)

    @property
    def corpus_failures(self) -> list[dict]:
        return [row for row in self.corpus if not row["ok"]]

    @property
    def matrix_failures(self) -> list[dict]:
        return [res for res in self.matrix if not res["ok"]]

    @property
    def uncaught_mutants(self) -> list[str]:
        return [m for m, s in self.sentinels.items() if not s["caught"]]

    @property
    def ok(self) -> bool:
        return (not self.corpus_failures and not self.matrix_failures
                and not self.uncaught_mutants)

    def describe(self) -> str:
        from .report import litmus_reproducer_command, render_litmus_report

        return render_litmus_report(self, litmus_reproducer_command)


class LitmusExplorer:
    """Fan generated litmus tests across the full persistency config matrix.

    One campaign is three stages, all deterministic in ``(count, seed)``:

    1. the **seed corpus** - the hand-written oracle targets' frontier
       counts against their pins, plus broken-demo's planted bug;
    2. the **matrix** - ``count`` generated tests, each executed at every
       :func:`config_matrix` point through the experiment engine's fork
       fan-out and disk cache (repeated points are free);
    3. the **sentinel self-check** - the first ``mutant_tests`` tests
       re-run across the matrix with each sentinel mutant armed; every
       mutant must be detected by at least one point.
    """

    def __init__(self, count: int, seed: int, jobs: int = 1,
                 max_frontiers: int = DEFAULT_LITMUS_FRONTIERS,
                 mutant_tests: int = 3, corpus: bool = True) -> None:
        if count < 1:
            raise ValueError("--litmus needs at least one test")
        self.count = count
        self.seed = seed
        self.jobs = max(1, jobs)
        self.max_frontiers = max_frontiers
        self.mutant_tests = min(max(1, mutant_tests), count)
        self.corpus = corpus

    def run(self) -> LitmusReport:
        from ..experiments.runner import run_litmus_batch

        tests = generate_tests(self.seed, self.count)
        points = config_matrix()
        tasks = [(t.payload(), p.spec(), None, self.max_frontiers)
                 for t in tests for p in points]
        n_plain = len(tasks)
        chosen = tests[: self.mutant_tests]
        for mutant in SENTINEL_MUTANTS:
            tasks.extend((t.payload(), p.spec(), mutant, self.max_frontiers)
                         for t in chosen for p in points)
        results = run_litmus_batch(tasks, jobs=self.jobs)
        sentinels: dict[str, dict] = {}
        stride = len(chosen) * len(points)
        for m, mutant in enumerate(SENTINEL_MUTANTS):
            block = results[n_plain + m * stride: n_plain + (m + 1) * stride]
            detections = [
                r for r in block
                if not r["ok"] and any(v["name"] != "litmus-determinism"
                                       for v in r["violations"])
            ]
            sentinels[mutant] = {
                "caught": bool(detections),
                "points": len(block),
                "detections": [
                    {"index": r["index"], "config": r["config"],
                     "name": r["violations"][0]["name"],
                     "frontier": r["violations"][0]["frontier"]}
                    for r in detections[:4]
                ],
            }
        return LitmusReport(
            seed=self.seed, count=self.count,
            corpus=run_seed_corpus() if self.corpus else [],
            matrix=results[:n_plain], sentinels=sentinels,
        )


def run_campaign(count: int, seed: int, jobs: int = 1,
                 max_frontiers: int = DEFAULT_LITMUS_FRONTIERS,
                 mutant_tests: int = 3, corpus: bool = True) -> LitmusReport:
    """Convenience wrapper: one :class:`LitmusExplorer` campaign."""
    return LitmusExplorer(count, seed, jobs=jobs, max_frontiers=max_frontiers,
                          mutant_tests=mutant_tests, corpus=corpus).run()
