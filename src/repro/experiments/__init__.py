"""Experiment harnesses regenerating every figure and table of the paper.

Each module produces :class:`~repro.experiments.results.ExperimentTable`
objects that render to the tab-separated ``out_*.txt`` files the paper's
artifact emits.  :func:`run_all` regenerates everything into ``reports/``,
prefetching the union of every artefact's engine-served runs (see
:mod:`~repro.experiments.runner`) so the expensive simulation work is
deduplicated, disk-cached, and - with ``jobs > 1`` - fanned out over
fork workers before the tables are assembled.
"""

from .ablations import (
    binomial_counter_example,
    ddio_ablation,
    hcl_striping_ablation,
    log_entry_size_sweep,
    warp_coalescing_ablation,
)
from .diskcache import ResultCache, table_from_record, table_to_record
from .figure1 import figure1a, figure1b
from .figure3 import cpu_persist_time, figure3, gpu_persist_throughput
from .figure9 import figure9
from .figure10 import eadr_summary, figure10
from .figure11 import figure11a, figure11b
from .figure12 import figure12, pattern_microbenchmark
from .results import ExperimentTable
from .runner import (
    RunRequest,
    clear_cache,
    effective_jobs,
    fan_out,
    get_default_jobs,
    get_disk_cache,
    modes_matrix,
    prefetch,
    run_workload,
    set_default_jobs,
    set_disk_cache,
    workload_names,
    _current_config,
)
from .multigpu import multi_gpu_scaling


def _ycsb_skew_sweep():
    # imported lazily: repro.workloads.ycsb imports experiment plumbing
    from ..workloads.ycsb import ycsb_skew_sweep

    return ycsb_skew_sweep()


def _delta_vs_full():
    from ..extensions.delta_checkpoint import delta_vs_full

    return delta_vs_full()


def _redo_vs_undo():
    from ..extensions.redo import redo_vs_undo

    return redo_vs_undo()


def _cxl_projection():
    from ..extensions.cxl import cxl_projection

    return cxl_projection()

from .profile import persistence_profile
from .sensitivity import sensitivity_sweep
from .table4 import table4
from .table5 import table5
from .text_results import checkpoint_frequency, cpu_only_db

ALL_EXPERIMENTS = {
    "figure1a": figure1a,
    "figure1b": figure1b,
    "figure3": figure3,
    "figure9": figure9,
    "figure10": figure10,
    "figure11a": figure11a,
    "figure11b": figure11b,
    "figure12": figure12,
    "figure12_patterns": pattern_microbenchmark,
    "table4": table4,
    "table5": table5,
    "checkpoint_freq": checkpoint_frequency,
    "cpu_db": cpu_only_db,
    "ablation_striping": hcl_striping_ablation,
    "ablation_coalescing": warp_coalescing_ablation,
    "ablation_ddio": ddio_ablation,
    "ablation_entry_size": log_entry_size_sweep,
    "ablation_binomial": binomial_counter_example,
    "sensitivity": sensitivity_sweep,
    "profile": persistence_profile,
    "multigpu": multi_gpu_scaling,
    "ycsb": _ycsb_skew_sweep,
    "delta_checkpoint": _delta_vs_full,
    "redo_vs_undo": _redo_vs_undo,
    "cxl_projection": _cxl_projection,
}


def requests_for(names) -> list[RunRequest]:
    """The deduplicated union of engine-served runs the artefacts consume.

    Artefact functions advertise their batch via a ``required_runs``
    attribute; artefacts without one (the bespoke microbenchmarks) simply
    contribute nothing and run their own simulations when built.
    """
    out: list[RunRequest] = []
    seen: set[RunRequest] = set()
    for name in names:
        getter = getattr(ALL_EXPERIMENTS[name], "required_runs", None)
        if getter is None:
            continue
        for req in getter():
            if req not in seen:
                seen.add(req)
                out.append(req)
    return out


def _build_record(name: str) -> dict:
    """Build one artefact; return its serialized table.

    Module-level and picklable: the unit of work ``run_all`` fans out.
    Workers fork after the prefetch, so they inherit the warm run memo.
    """
    return table_to_record(ALL_EXPERIMENTS[name]())


def run_artefact(name: str) -> ExperimentTable:
    """Build one named artefact, via the persistent table cache if enabled."""
    cache = get_disk_cache()
    config = _current_config()
    if cache is not None:
        cached = cache.load_table(name, config)
        if cached is not None:
            return cached
    table = ALL_EXPERIMENTS[name]()
    if cache is not None:
        cache.store_table(name, config, table)
    return table


def run_all(directory: str = "reports", verbose: bool = True,
            jobs: int | None = None, names=None) -> dict[str, ExperimentTable]:
    """Regenerate every figure/table; saves out_*.txt files; returns tables.

    ``jobs > 1`` fans the work over fork workers in two waves: first the
    union of the artefacts' engine-served runs (the expensive simulations,
    deduplicated), then the table assembly for artefacts the persistent
    table cache cannot already answer.  Output is bit-identical to a
    sequential run - the simulation is deterministic and results cross
    process boundaries as exact serialized payloads.
    """
    names = list(names) if names is not None else list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown artefacts: {', '.join(unknown)}")
    jobs = get_default_jobs() if jobs is None else jobs
    cache = get_disk_cache()
    config = _current_config()

    tables: dict[str, ExperimentTable] = {}
    if cache is not None:
        for name in names:
            cached = cache.load_table(name, config)
            if cached is not None:
                tables[name] = cached
    pending = [n for n in names if n not in tables]

    if pending:
        # Warm the run memo first: the table wave forks after it, so no
        # run executes twice.
        prefetch(requests_for(pending), jobs=jobs)
        records = fan_out(_build_record, [(name,) for name in pending], jobs)
        for name, record in zip(pending, records):
            tables[name] = table_from_record(record)
        if cache is not None:
            for name in pending:
                cache.store_table(name, config, tables[name])

    out = {}
    for name in names:
        table = tables[name]
        table.save(directory)
        if verbose:
            print(table.to_text())
        out[name] = table
    return out


__all__ = [
    "ALL_EXPERIMENTS",
    "binomial_counter_example",
    "ddio_ablation",
    "hcl_striping_ablation",
    "log_entry_size_sweep",
    "warp_coalescing_ablation",
    "ExperimentTable",
    "ResultCache",
    "RunRequest",
    "effective_jobs",
    "fan_out",
    "checkpoint_frequency",
    "clear_cache",
    "cpu_only_db",
    "cpu_persist_time",
    "eadr_summary",
    "figure1a",
    "figure1b",
    "figure3",
    "figure9",
    "figure10",
    "figure11a",
    "figure11b",
    "figure12",
    "gpu_persist_throughput",
    "modes_matrix",
    "pattern_microbenchmark",
    "multi_gpu_scaling",
    "persistence_profile",
    "prefetch",
    "requests_for",
    "run_all",
    "run_artefact",
    "run_workload",
    "sensitivity_sweep",
    "set_default_jobs",
    "set_disk_cache",
    "table4",
    "table5",
    "workload_names",
]
