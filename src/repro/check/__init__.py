"""Systematic crash-consistency checking built on the hardware event bus.

The paper argues recoverability from *random* fault injection (Section 6.2,
NVBitFI); this subsystem replaces sampling with enumeration.  A reference
run is observed through the event bus to identify every semantically
distinct *crash frontier* (fences, warp drain rounds, Optane epochs,
persist-window toggles, checkpoint marks, and the unfenced thread windows
between them) and to snapshot the durable state a crash at each event
frontier leaves.  Each crash state - powered up from that snapshot, or
replayed to its frontier and crashed there when no snapshot names it - is
recovered with :class:`repro.core.recovery.RecoveryManager` and judged
against the invariants the workload declares through the
:class:`CrashOracle` protocol.

Modules
-------
``frontier``   frontier taxonomy, the :class:`FrontierRecorder`, pruning
``census``     chunk-shared durable-image snapshots, and powering a fresh
               system up over one
``oracle``     the :class:`CrashOracle` protocol and invariant plumbing
``oracles``    concrete oracles for the check targets (prefix_sum, kvs,
               checkpointed-dnn, hashmap, ring, broken-demo)
``explorer``   the :class:`CrashExplorer` loop (census states in-process,
               replays over multiprocessing)
``report``     human-readable reports with replayable reproducer commands
``litmus``     the persistency-litmus fuzzer: seeded generated tests, the
               outcome oracle, and the :class:`LitmusExplorer` config-matrix
               fan-out with sentinel-mutant self-checks

CLI: ``python -m repro check <target>`` or ``--litmus N --seed S``
(see ``docs/crash-consistency.md``).
"""

from .explorer import CrashExplorer, ExploreReport, FrontierResult, explore
from .litmus import (
    ConfigPoint,
    LitmusExplorer,
    LitmusReport,
    LitmusTest,
    config_matrix,
    execute_point,
    generate_test,
    parse_config_point,
    run_campaign,
)
from .frontier import (
    Frontier,
    FrontierRecorder,
    format_frontier,
    parse_frontier,
    prune_frontiers,
)
from .oracle import CrashOracle, InvariantCheck, InvariantVerdict, RunObservation
from .oracles import CHECK_TARGETS, make_oracle

__all__ = [
    "CHECK_TARGETS",
    "ConfigPoint",
    "CrashExplorer",
    "CrashOracle",
    "ExploreReport",
    "Frontier",
    "FrontierRecorder",
    "FrontierResult",
    "InvariantCheck",
    "InvariantVerdict",
    "LitmusExplorer",
    "LitmusReport",
    "LitmusTest",
    "RunObservation",
    "config_matrix",
    "execute_point",
    "explore",
    "format_frontier",
    "generate_test",
    "make_oracle",
    "parse_config_point",
    "parse_frontier",
    "prune_frontiers",
    "run_campaign",
]
