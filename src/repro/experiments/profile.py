"""WHISPER-style persistence profiling of the GPMbench workloads.

Nalli et al.'s WHISPER analysis [64] characterised CPU PM applications by
their persistence *behaviour* - how often they order, how much they write,
how local the writes are.  The same lens applied to GPM's workloads
explains every performance result in the paper's evaluation: the profile
below is the quantitative bridge between Table 1's workload taxonomy and
Figs. 9-12.

Per workload (under GPM):

* fences issued, and fences per kilobyte persisted (ordering intensity),
* PM bytes persisted and the media's internal write amplification
  (random/partial-line RMW overhead),
* PCIe transactions per kilobyte (coalescing quality),
* kernels launched (kernel-boundary overhead exposure).

The numbers are read from each run's windowed
:class:`~repro.sim.stats.MachineStats` - the fold of the event bus by
:class:`~repro.sim.events.StatsAggregator` over the workload's measured
section, the same counters Table 4 and Fig. 12 read.
"""

from __future__ import annotations

from ..workloads import Mode
from .results import ExperimentTable
from .runner import modes_matrix, prefetch, run_workload, workload_names


def required_runs():
    """The deduplicated batch of runs this table consumes."""
    return modes_matrix(Mode.GPM)


def persistence_profile() -> ExperimentTable:
    prefetch(required_runs())
    table = ExperimentTable(
        "profile",
        "Persistence profile of GPMbench under GPM (WHISPER-style)",
        ["workload", "fences", "fences_per_kb", "pm_kb", "media_amplification",
         "tx_per_kb", "kernels"],
    )
    for name in workload_names():
        stats = run_workload(name, Mode.GPM).window.stats
        pm_bytes = stats.pm_bytes_written
        pm_kb = pm_bytes / 1024
        table.add(
            name,
            stats.system_fences,
            stats.system_fences / pm_kb if pm_bytes else 0.0,
            pm_kb,
            stats.pm_bytes_written_internal / pm_bytes if pm_bytes else 0.0,
            stats.pcie_transactions / pm_kb if pm_bytes else 0.0,
            stats.kernels_launched,
        )
    table.notes.append(
        "high fences/KB + high media amplification = the transactional "
        "class (Fig. 12's low bandwidths); amplification ~1 + low "
        "fences/KB = the streaming checkpoint class; BFS combines few "
        "bytes with extreme kernel counts"
    )
    return table


persistence_profile.required_runs = required_runs
