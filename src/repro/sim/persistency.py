"""First-class GPU persistency models: the pluggable mode axis.

GPM (the paper) is one point in the GPU-persistency design space.  This
module makes the whole axis explicit: a :class:`PersistencyModel` bundles
the three decisions that used to be smeared across the stack as booleans
and special cases -

1. **ordering** - how system-scope fences relate to durability
   (``fence_policy``: every fence is its own drain round, fences collapse
   into epochs delimited by barriers, or durability only at kernel
   completion);
2. **persist-domain boundary** - whether the LLC is inside the persistence
   domain (eADR) and whether persist windows must toggle DDIO
   (``perfctrlsts_0``);
3. **data path** - whether each inbound write goes straight to the PM
   media or stages in DRAM/LLC for a later bulk flush
   (:meth:`PersistencyModel.route_io_write`, the adaptive models).

Concrete models:

===============  ============================================================
``strict``       today's GPM semantics (Section 5.1): DDIO-off windows,
                 every ``__threadfence_system()`` is an ordered drain round.
                 Bit-identical to the seed goldens by construction.
``eadr``         GPM on the projected eADR platform (Section 3.3): the LLC
                 joins the persistence domain, windows are no-ops.
``epoch``        epoch persistency (Lin & Solihin): fences inside an epoch
                 are unordered among themselves; ordering is only enforced
                 across epoch boundaries (block barriers / kernel end),
                 which the engine announces as ``EpochBoundary`` events.
``relaxed``      relaxed persistency: fences guarantee nothing before
                 kernel completion; all persist traffic drains at the end.
``adaptive``     adaptive data-path selection (Long et al.): per write
                 batch, choose the direct-PM path or the DRAM/LLC staging
                 path from the access pattern observed on the event bus.
===============  ============================================================

Two registries live here so every layer shares one source of truth:

* :data:`MODEL_REGISTRY` - model name -> model class
  (:func:`make_model`, :func:`register_model`);
* :data:`MODE_REGISTRY` - workload mode string (``"gpm"``, ``"cap-mm"``,
  ``"gpm-epoch"``, ...) -> :class:`ModeEntry` describing which model the
  mode uses and how workloads drive it (:func:`mode_entry`,
  :func:`register_mode`).  ``repro.workloads.base.Mode`` and the CLI are
  both thin views over this table; unknown names error with the known set.

Registering a new model from the literature is::

    @register_model
    class MyModel(PersistencyModel):
        name = "mymodel"
        fence_policy = "epoch"

    register_mode(ModeEntry(name="gpm-mymodel", model="mymodel",
                            data_on_pm=True, in_kernel_persist=True,
                            uses_persist_window=True))

See ``docs/persistency-models.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from operator import add

from .events import GpuPmWrite, WarpDrain

#: Cost of the privileged I/O-register write that flips DDIO (the paper's
#: ``perfctrlsts_0`` write); charged by models whose windows toggle DDIO.
DDIO_TOGGLE_S = 2.0e-6

#: The fence-ordering policies the SIMT engine implements.
FENCE_POLICIES = ("strict", "epoch", "relaxed")


# ---------------------------------------------------------------------------
# sentinel mutants (planted ordering bugs for the litmus fuzzer)
# ---------------------------------------------------------------------------

#: Named, intentionally planted ordering bugs.  ``repro check --litmus``
#: re-runs a slice of its generated tests with each mutant armed and fails
#: if the fuzzer does not catch it (``docs/crash-consistency.md``):
#:
#: * ``"fence-order"`` re-plants the broken-demo bug at the engine level:
#:   ``flush_warp`` delivers a warp's buffered drain rounds in *reverse*
#:   order, so a later fence's writes can be durable at a crash while an
#:   earlier fence's are not;
#: * ``"epoch-boundary"`` makes the :class:`Epoch` model decline to open
#:   the next epoch at a barrier (:meth:`PersistencyModel.advance_epoch`),
#:   silently coalescing adjacent epochs - no ``EpochBoundary`` frontier is
#:   ever announced.
SENTINEL_MUTANTS = ("fence-order", "epoch-boundary")

_mutant: str | None = None


def activate_mutant(name: str | None) -> None:
    """Arm one sentinel mutant process-wide (``None`` disarms)."""
    global _mutant
    if name is not None and name not in SENTINEL_MUTANTS:
        known = ", ".join(SENTINEL_MUTANTS)
        raise ValueError(f"unknown sentinel mutant {name!r}; one of: {known}")
    _mutant = name


def active_mutant() -> str | None:
    """The armed sentinel mutant, or ``None`` (the normal case)."""
    return _mutant


@contextmanager
def sentinel_mutant(name: str | None):
    """Arm a sentinel mutant for the scope of the block (``None`` = no-op)."""
    previous = _mutant
    activate_mutant(name)
    try:
        yield
    finally:
        activate_mutant(previous)


class PersistencyModel:
    """Ordering, persist-domain and data-path rules for one machine.

    One instance is owned by one :class:`~repro.sim.machine.Machine` (models
    carry per-machine state: staged ranges, observed access patterns).  The
    class attributes are the model's static contract; the methods are the
    hooks the machine, ``core.persist`` and the GPU engine delegate to.
    """

    #: registry key and display name
    name = "strict"
    #: the LLC is inside the persistence domain (eADR, Section 3.3)
    eadr = False
    #: fence ordering the SIMT engine applies; one of FENCE_POLICIES
    fence_policy = "strict"
    #: persist windows toggle DDIO (the ``perfctrlsts_0`` write)
    toggles_ddio = True
    #: per-write data-path selection is active (:meth:`route_io_write`)
    adaptive = False

    # -- lifecycle ---------------------------------------------------------

    def attach(self, machine) -> None:
        """Bind to the owning machine (subscribe observers, read config).

        Keeps no reference to it: a machine and its model would otherwise
        form a cycle that only the cyclic collector frees, holding every
        region image of a finished machine until it runs.
        """

    def reset_after_crash(self) -> None:
        """Drop volatile model state (staged ranges, open windows)."""

    # -- persist-window boundary (core.persist delegates here) -------------

    def window_begin(self, machine) -> None:
        if self.toggles_ddio:
            machine.set_ddio(False)
            machine.clock.advance(DDIO_TOGGLE_S)

    def window_end(self, machine) -> None:
        if self.toggles_ddio:
            machine.set_ddio(True)
            machine.clock.advance(DDIO_TOGGLE_S)

    # -- epoch semantics ---------------------------------------------------

    @property
    def declares_epochs(self) -> bool:
        """Whether the engine announces ``EpochBoundary`` frontiers.

        True exactly for epoch-policy models: barriers and kernel completion
        close an epoch, which is where cross-epoch ordering is enforced.
        """
        return self.fence_policy == "epoch"

    def advance_epoch(self, epoch: int) -> int:
        """The epoch to open when the engine closes a dirty epoch.

        The SIMT engine delegates here from its barrier/completion hook and
        drops the ``EpochBoundary`` announcement when the returned epoch is
        unchanged (see the ``"epoch-boundary"`` sentinel mutant).
        """
        return epoch + 1

    # -- ordering predicates (the litmus outcome oracle reads these) -------

    def orders_rounds(self) -> bool:
        """Each thread's fenced drain rounds are durability-ordered.

        Under strict-policy models a thread's round *r+1* can only be
        durable at a crash if round *r* is; unfenced (implicit-round) stores
        order after every fenced round of their thread.
        """
        return self.fence_policy == "strict"

    def orders_epochs(self) -> bool:
        """Durability is ordered across epoch boundaries (all threads).

        Under epoch-policy models fences inside one epoch are unordered
        among themselves, but a write fenced in epoch *e+1* can only be
        durable at a crash if every write fenced in epoch *e* is.
        """
        return self.fence_policy == "epoch"

    def durable_on_delivery(self, in_window: bool) -> bool:
        """Whether a delivered drain round is durable if the machine crashes.

        True when the LLC is inside the persistence domain (eADR) or when
        delivery bypasses the volatile LLC (DDIO off inside a persist
        window).  False means delivered-but-volatile: the write parks in
        LLC lines that a crash discards.
        """
        return self.eadr or (in_window and self.toggles_ddio)

    # -- data path ---------------------------------------------------------

    def route_io_write(self, machine, region, starts, lengths):
        """Route one inbound write group to a PM region; ``None`` means the
        default DDIO-governed path (only adaptive models override this).

        ``starts``/``lengths`` are the group's merged runs as lists of
        Python ints.  Returns the media seconds the group cost.
        """
        return None

    def describe(self) -> str:
        domain = "LLC (eADR)" if self.eadr else "memory controllers (ADR)"
        return (f"{self.name}: {self.fence_policy} ordering, "
                f"persist domain at the {domain}")


class Strict(PersistencyModel):
    """Today's GPM semantics - the seed's behaviour, bit for bit."""

    name = "strict"


class EadrStrict(Strict):
    """Strict ordering on the projected eADR platform: windows are free."""

    name = "eadr"
    eadr = True
    toggles_ddio = False


class Epoch(PersistencyModel):
    """Epoch persistency: durability ordered only across epoch boundaries.

    Fences still *initiate* persists, but fences within one epoch are
    unordered among themselves: the engine coalesces them into a single
    drain round per warp and epoch.  Block-wide barriers and kernel
    completion close the epoch (``EpochBoundary`` on the event bus), which
    is where ordering - and the per-warp fence critical path - is paid.
    """

    name = "epoch"
    fence_policy = "epoch"

    def advance_epoch(self, epoch: int) -> int:
        # Sentinel mutant "epoch-boundary": decline to open the next epoch,
        # silently coalescing adjacent epochs.  The litmus fuzzer's frontier
        # census must notice the missing EpochBoundary announcements.
        if active_mutant() == "epoch-boundary":
            return epoch
        return epoch + 1


class Relaxed(PersistencyModel):
    """Relaxed persistency: durability guaranteed only at kernel end."""

    name = "relaxed"
    fence_policy = "relaxed"


class AdaptivePath(PersistencyModel):
    """Runtime direct-PM vs DRAM/LLC-staged write-path selection.

    Inside persist windows (which keep DDIO *on* under this model), each
    inbound write batch is routed by the access pattern observed on the
    event bus: an exponential moving average of warp-drain segment sizes.
    Large/sequential traffic takes the direct path (media write, durable at
    the fence, like strict); small/scattered traffic stages in the LLC and
    is flushed in bulk - per region at the next direct write to that region
    (preserving per-region persist order), and globally at window end.

    Crash semantics follow from the mechanism: staged-but-unflushed writes
    live in volatile LLC lines and are lost, exactly like pre-fence stores
    under strict - so recovery protocols built on "fence before sentinel"
    stay sound (a durable sentinel can only have reached the media via the
    direct path, which flushes the region's staged backlog first).
    """

    name = "adaptive"
    adaptive = True
    toggles_ddio = False

    #: EMA weight of the newest warp-drain observation.
    ema_alpha = 0.2

    def __init__(self) -> None:
        super().__init__()
        self._ema_segment_bytes: float | None = None
        self._window_depth = 0
        #: region.token -> (region, staged_lo, staged_hi)
        self._staged: dict[int, list] = {}
        self._threshold = 256

    # -- lifecycle ---------------------------------------------------------

    def attach(self, machine) -> None:
        super().attach(machine)
        self._threshold = machine.config.pm_xpline_bytes
        machine.events.subscribe(self._observe)

    def _observe(self, ts: float, event) -> None:
        if type(event) is not WarpDrain or not event.segments:
            return
        mean = event.nbytes / event.segments
        if self._ema_segment_bytes is None:
            self._ema_segment_bytes = mean
        else:
            a = self.ema_alpha
            self._ema_segment_bytes = (1 - a) * self._ema_segment_bytes + a * mean

    def reset_after_crash(self) -> None:
        self._staged.clear()
        self._window_depth = 0
        self._ema_segment_bytes = None

    # -- windows -----------------------------------------------------------

    def window_begin(self, machine) -> None:
        self._window_depth += 1

    def window_end(self, machine) -> None:
        self._window_depth -= 1
        if self._window_depth > 0:
            return
        self._window_depth = 0
        total = 0.0
        for token in list(self._staged):
            total += self._flush_staged(machine, token)
        if total:
            machine.clock.advance(total)

    # -- data path ---------------------------------------------------------

    def route_io_write(self, machine, region, starts, lengths):
        """Stage one write group in the LLC or write it direct to the media.

        The path follows the observed access pattern: the EMA of warp-drain
        segment sizes, or this group's own mean segment size before any
        drain was seen.  Staged groups widen the region's staged range.
        """
        if self._window_depth <= 0:
            return None
        signal = self._ema_segment_bytes
        if signal is None:
            signal = float(sum(lengths)) / max(1, len(lengths))
        if signal < self._threshold:
            machine.llc.install_writes(region, starts, lengths)
            if starts:
                lo = min(starts)
                hi = max(map(add, starts, lengths))
                entry = self._staged.get(region.token)
                if entry is None:
                    self._staged[region.token] = [region, lo, hi]
                else:
                    entry[1] = min(entry[1], lo)
                    entry[2] = max(entry[2], hi)
            return 0.0
        # Direct path: the region's staged backlog must hit the media first
        # (writes to one region persist in issue order under this model).
        time = self._flush_staged(machine, region.token)
        return time + machine.optane.write_epochs(
            region, starts, lengths, (0, len(starts)), arrival_event=GpuPmWrite)[0]

    def _flush_staged(self, machine, token: int) -> float:
        entry = self._staged.pop(token, None)
        if entry is None:
            return 0.0
        region, lo, hi = entry
        return machine.llc.flush_range(region, lo, hi - lo)

    def describe(self) -> str:
        return (f"{self.name}: strict ordering, per-write direct-PM vs "
                f"LLC-staged path selection (threshold {self._threshold} B)")


# ---------------------------------------------------------------------------
# model registry
# ---------------------------------------------------------------------------

#: model name -> model class; the single source of truth for ``--model``
#: style lookups and the mode table below.
MODEL_REGISTRY: dict[str, type[PersistencyModel]] = {}


def register_model(cls: type[PersistencyModel]) -> type[PersistencyModel]:
    """Register a :class:`PersistencyModel` subclass under ``cls.name``."""
    if cls.fence_policy not in FENCE_POLICIES:
        raise ValueError(
            f"model {cls.name!r} has unknown fence policy "
            f"{cls.fence_policy!r}; one of: {', '.join(FENCE_POLICIES)}")
    MODEL_REGISTRY[cls.name] = cls
    return cls


for _cls in (Strict, EadrStrict, Epoch, Relaxed, AdaptivePath):
    register_model(_cls)


def known_models() -> list[str]:
    return list(MODEL_REGISTRY)


def make_model(name: str) -> PersistencyModel:
    """Instantiate a registered model; unknown names list the known set."""
    try:
        cls = MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(MODEL_REGISTRY)
        raise ValueError(
            f"unknown persistency model {name!r}; one of: {known}") from None
    return cls()


def resolve_model(spec) -> PersistencyModel:
    """Normalise a model spec (instance | name | None) to a model instance.

    ``None`` means the default :class:`Strict` model; a name is looked up
    in :data:`MODEL_REGISTRY`; an instance is returned as is.
    """
    if spec is None:
        return Strict()
    if isinstance(spec, str):
        return make_model(spec)
    if isinstance(spec, PersistencyModel):
        return spec
    raise TypeError(
        f"persistency must be a model name, a PersistencyModel or None, "
        f"not {type(spec).__name__}")


# ---------------------------------------------------------------------------
# mode registry (the workload-facing mode strings)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeEntry:
    """How one workload-facing mode string drives the stack.

    ``model`` names the :data:`MODEL_REGISTRY` entry the mode's machines
    are built with; the booleans are the data-path facts workloads branch
    on (formerly hard-coded properties of the ``Mode`` enum).
    """

    name: str
    model: str
    #: kernels load/store PM directly (vs an HBM shadow + post-kernel copy)
    data_on_pm: bool = False
    #: kernels guarantee persistence themselves (no post-kernel persist)
    in_kernel_persist: bool = False
    #: ``ModeDriver`` opens a persist window around kernel phases
    uses_persist_window: bool = False
    description: str = ""

    @property
    def needs_eadr(self) -> bool:
        return MODEL_REGISTRY[self.model].eadr


#: mode string -> ModeEntry; shared by ``workloads.base.Mode``, the CLI
#: and the experiment tables.
MODE_REGISTRY: dict[str, ModeEntry] = {}


def register_mode(entry: ModeEntry) -> ModeEntry:
    if entry.model not in MODEL_REGISTRY:
        raise ValueError(
            f"mode {entry.name!r} references unknown model {entry.model!r}")
    MODE_REGISTRY[entry.name] = entry
    return entry


for _entry in (
    ModeEntry("gpm", "strict", data_on_pm=True, in_kernel_persist=True,
              uses_persist_window=True,
              description="data on PM, in-kernel persists, DDIO-off windows"),
    ModeEntry("gpm-ndp", "strict", data_on_pm=True,
              description="data on PM, no direct persistence; CPU flushes"),
    ModeEntry("gpm-eadr", "eadr", data_on_pm=True, in_kernel_persist=True,
              description="GPM on the projected eADR platform"),
    ModeEntry("gpm-epoch", "epoch", data_on_pm=True, in_kernel_persist=True,
              uses_persist_window=True,
              description="GPM under epoch persistency (barrier-delimited)"),
    ModeEntry("gpm-relaxed", "relaxed", data_on_pm=True,
              in_kernel_persist=True, uses_persist_window=True,
              description="GPM under relaxed persistency (kernel-end only)"),
    ModeEntry("gpm-adaptive", "adaptive", data_on_pm=True,
              in_kernel_persist=True, uses_persist_window=True,
              description="GPM with adaptive direct-PM/staged data paths"),
    ModeEntry("cap-fs", "strict",
              description="kernel writes HBM; CPU persists via write+fsync"),
    ModeEntry("cap-mm", "strict",
              description="kernel writes HBM; CPU persists via mmap+flush"),
    ModeEntry("cap-eadr", "eadr",
              description="CAP-mm on the eADR platform (no flushes)"),
    ModeEntry("gpufs", "strict",
              description="kernel writes HBM; gwrite RPCs persist via OS"),
):
    register_mode(_entry)


def known_mode_names() -> list[str]:
    return list(MODE_REGISTRY)


def mode_entry(name: str) -> ModeEntry:
    """Look up one mode string; unknown names list the known set."""
    try:
        return MODE_REGISTRY[name]
    except KeyError:
        known = " | ".join(MODE_REGISTRY)
        raise ValueError(
            f"unknown persistence mode {name!r}; one of: {known}") from None
