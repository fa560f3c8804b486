"""The experiment engine: memoised, disk-cached, parallel workload execution.

Several figures slice the same runs (Fig. 9 and Table 4 both need
GPM/CAP-mm results; Fig. 12 and the persistence profile read the GPM
windows), so every run is keyed by ``(workload name, mode, machine
configuration)`` and satisfied from, in order:

1. the **in-process memo** (this module's ``_cache``),
2. the **persistent disk cache** (:class:`~repro.experiments.diskcache.
   ResultCache`, enabled by the CLI / :func:`set_disk_cache`) - results
   survive process exit and are shared across concurrent processes,
3. a **fresh deterministic run** - inline, or fanned out by
   :func:`fan_out` over fork workers when :func:`prefetch` is given
   ``jobs > 1``.

Figure/table modules declare the batch of runs they consume via
:func:`RunRequest` lists and call :func:`prefetch` up front, so a single
deduplicated set of runs is executed (in parallel when requested) instead
of ad-hoc ``run_workload`` calls serialising on one core.

Every fan-out forks a fresh pool *after* the caller set its state, so
workers inherit the active configuration and the warm memo; nothing is
shipped but the task arguments.  Results cross process and cache
boundaries as exact JSON payloads (see :mod:`~repro.experiments.diskcache`):
a parallel run is bit-identical to a sequential one because the simulation
is deterministic and the serialization is lossless.

The cache key includes the active :class:`~repro.sim.config.SystemConfig`
(a frozen, hashable dataclass), so tests or ablations that swap
``repro.sim.config.DEFAULT_CONFIG`` never read results produced under a
different machine.  ``GpufsUnsupported`` outcomes are stored as *reason
markers*, never exception objects, so every cache hit raises a fresh
exception (re-raising one shared instance would mutate its
``__traceback__`` across callers).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..host.gpufs import GpufsUnsupported
from ..sim import config as _config
from ..sim.config import SystemConfig
from ..workloads import Mode, RunResult, gpmbench_suite, hostmemo
from .diskcache import ResultCache, result_from_record, result_to_record


def _current_config() -> SystemConfig:
    """The configuration new systems will be built with, read dynamically."""
    return _config.DEFAULT_CONFIG


@dataclass(frozen=True)
class _Unsupported:
    """Memoised marker for a run the mode cannot execute (GPUfs)."""

    reason: str


@dataclass(frozen=True)
class RunRequest:
    """One (workload, mode) run an artefact needs."""

    workload: str
    mode: Mode

    @property
    def sort_key(self) -> tuple:
        return (self.workload, self.mode.value)


#: (workload name, mode, config) -> RunResult | _Unsupported
_cache: dict[tuple[str, Mode, SystemConfig], RunResult | _Unsupported] = {}

#: Persistent cache shared across processes; ``None`` keeps the engine
#: memory-only (the library default - the CLI opts in).
_disk_cache: ResultCache | None = None
#: Fan-out width used when ``prefetch`` is not given an explicit ``jobs``.
_default_jobs: int = 1

#: Workloads runnable by name beyond the Fig. 9 lineup (e.g. the
#: Section 4.3 binomial counter-example), registered by their consumers.
_extra_workloads: dict[str, Callable[[], object]] = {}


# --------------------------------------------------------------------------
# engine configuration
# --------------------------------------------------------------------------


def set_disk_cache(cache: ResultCache | None) -> None:
    """Install (or, with ``None``, disable) the persistent result cache."""
    global _disk_cache
    _disk_cache = cache


def get_disk_cache() -> ResultCache | None:
    return _disk_cache


def set_default_jobs(jobs: int) -> None:
    """Fan-out width for prefetches that do not pass ``jobs`` explicitly."""
    global _default_jobs
    _default_jobs = max(1, int(jobs))


def get_default_jobs() -> int:
    return _default_jobs


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    Container CPU quotas and taskset masks make ``os.cpu_count()`` a lie;
    the scheduler affinity set is what fork workers can really use.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def effective_jobs(jobs: int) -> int:
    """Clamp a requested fan-out width to the CPUs actually available.

    The simulation is pure Python compute, so forking more workers than
    cores strictly loses: on a 1-core host a 2-worker cold ``run_all`` of
    a small artefact subset ran at 0.90x sequential - all contention and
    fork overhead, no parallelism.  A clamped width of 1 runs inline.
    """
    return max(1, min(int(jobs), available_cpus()))


def fan_out(fn: Callable, args: Sequence[tuple], jobs: int) -> list:
    """``[fn(*a) for a in args]``, over fork workers when that can pay.

    Each call forks a fresh pool of ``min(jobs, len(args))`` workers, so
    they inherit the caller's state as it is *now*: the active
    ``SystemConfig``, the warm run memo and the disk cache.  ``chunksize=1``
    because task times vary by 100x (a static chunk would serialise behind
    the slow ones).  It runs inline when the clamped width is 1, for fewer
    than two tasks, and inside a pool worker - daemonic workers cannot
    fork children, so a nested fan-out (a table builder's prefetch) stays
    in its worker.
    """
    jobs = min(effective_jobs(jobs), len(args))
    if jobs > 1:
        import multiprocessing as mp

        if not mp.current_process().daemon:
            with mp.get_context("fork").Pool(jobs) as pool:
                return pool.starmap(fn, args, chunksize=1)
    return [fn(*a) for a in args]


def register_workload(name: str, factory: Callable[[], object]) -> None:
    """Make a non-lineup workload runnable (and cacheable) by name."""
    _extra_workloads[name] = factory


def workload_names() -> list[str]:
    return [w.name for w in gpmbench_suite()]


def modes_matrix(*modes: Mode) -> list[RunRequest]:
    """Every lineup workload crossed with the given modes."""
    return [RunRequest(name, mode)
            for name in workload_names() for mode in modes]


def _fresh(name: str):
    for w in gpmbench_suite():
        if w.name == name:
            return w
    factory = _extra_workloads.get(name)
    if factory is not None:
        return factory()
    raise KeyError(f"unknown workload {name!r}")


# --------------------------------------------------------------------------
# execution and memo plumbing
# --------------------------------------------------------------------------


def _execute(workload: str, mode_value: str) -> dict:
    """Run one workload fresh; return its serialized payload.

    Module-level and picklable: this is the unit of work :func:`fan_out`
    dispatches.  Returning payloads rather than live objects keeps the
    parallel and sequential paths on one serialization, so their results
    cannot diverge.
    """
    try:
        return {"result": result_to_record(_fresh(workload).run(Mode(mode_value)))}
    except GpufsUnsupported as exc:
        return {"unsupported": exc.reason}


def _execute_litmus(test_payload: dict, point_spec: str, mutant: str | None,
                    max_frontiers: int) -> dict:
    """Run one litmus (test, config-point, mutant) fresh; fan-out-dispatchable.

    Imported lazily both ways (``repro.check.litmus`` calls
    :func:`run_litmus_batch`, which dispatches back here) to keep the
    check/experiments layers import-cycle-free.
    """
    from ..check.litmus import execute_point

    return execute_point(test_payload, point_spec, mutant=mutant,
                         max_frontiers=max_frontiers)


def run_litmus_batch(tasks: list[tuple], jobs: int | None = None) -> list[dict]:
    """Satisfy a batch of litmus tasks: disk cache, else (parallel) runs.

    Each task is ``(test_payload, point_spec, mutant, max_frontiers)`` -
    plain JSON-able values, exactly what one :func:`_execute_litmus` call
    takes and what keys the disk cache (so repeated matrix points across
    fuzzing sessions are free).  Misses go through :func:`fan_out`, like
    workload prefetches.
    """
    config = _current_config()
    results: list[dict | None] = [None] * len(tasks)
    pending: list[int] = []
    for i, task in enumerate(tasks):
        payload = _disk_cache.load_litmus(task, config) if _disk_cache else None
        if payload is not None:
            results[i] = payload
        else:
            pending.append(i)
    payloads = fan_out(_execute_litmus, [tasks[i] for i in pending],
                       _default_jobs if jobs is None else jobs)
    for i, payload in zip(pending, payloads):
        results[i] = payload
        if _disk_cache is not None:
            _disk_cache.store_litmus(tasks[i], config, payload)
    return results


def _install_payload(req: RunRequest, config: SystemConfig, payload: dict) -> None:
    key = (req.workload, req.mode, config)
    if "unsupported" in payload:
        _cache[key] = _Unsupported(payload["unsupported"])
    else:
        _cache[key] = result_from_record(payload["result"])


# --------------------------------------------------------------------------
# public API
# --------------------------------------------------------------------------


def prefetch(requests: Iterable[RunRequest], jobs: int | None = None) -> None:
    """Satisfy a batch of run requests, fanning misses over fork workers.

    Deduplicates the requests, satisfies what it can from the memo and the
    disk cache, and executes the rest through :func:`fan_out` at width
    ``jobs`` (default: the engine-wide setting of
    :func:`set_default_jobs`).  After the call every request is answerable
    from the memo, so subsequent ``run_workload`` calls are hits.
    """
    config = _current_config()
    pending = sorted(
        {r for r in requests if (r.workload, r.mode, config) not in _cache},
        key=lambda r: r.sort_key,
    )
    if _disk_cache is not None:
        still = []
        for req in pending:
            payload = _disk_cache.load_run(req.workload, req.mode, config)
            if payload is not None:
                _install_payload(req, config, payload)
            else:
                still.append(req)
        pending = still
    payloads = fan_out(_execute,
                       [(r.workload, r.mode.value) for r in pending],
                       _default_jobs if jobs is None else jobs)
    for req, payload in zip(pending, payloads):
        _install_payload(req, config, payload)
        if _disk_cache is not None:
            _disk_cache.store_run(req.workload, req.mode, config, payload)


def run_workload(name: str, mode: Mode) -> RunResult:
    """Run (or recall) one workload under one mode.

    Raises :class:`GpufsUnsupported` for the GPUfs-incompatible workloads,
    exactly as the real GPUfs port would fail - a *fresh* exception object
    per call, never a cached one.
    """
    prefetch([RunRequest(name, mode)])
    out = _cache[(name, mode, _current_config())]
    if isinstance(out, _Unsupported):
        raise GpufsUnsupported(out.reason)
    return out


def clear_cache() -> None:
    """Drop the in-process memo and the remembered host trajectories.

    Both the run results and the workloads' mode-independent host compute
    (:mod:`repro.workloads.hostmemo`) start cold afterwards; the disk cache
    is untouched.
    """
    _cache.clear()
    hostmemo.clear()
