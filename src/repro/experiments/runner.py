"""The experiment engine: memoised, disk-cached, parallel workload execution.

Several figures slice the same runs (Fig. 9 and Table 4 both need
GPM/CAP-mm results; Fig. 12 needs the GPM windows), so every run is keyed
by ``(workload name, mode, machine configuration)`` and satisfied from, in
order:

1. the **in-process memo** (this module's dictionaries),
2. the **persistent disk cache** (:class:`~repro.experiments.diskcache.
   ResultCache`, enabled by the CLI / :func:`set_disk_cache`) - results
   survive process exit and are shared across concurrent processes,
3. a **fresh deterministic run** - inline, or fanned out over a fork pool
   when :func:`prefetch`/:func:`run_workloads_parallel` is given
   ``jobs > 1``.

Figure/table modules declare the batch of runs they consume via
:func:`RunRequest` lists and call :func:`prefetch` up front, so a single
deduplicated set of runs is executed (in parallel when requested) instead
of ad-hoc ``run_workload`` calls serialising on one core.

Results cross process and cache boundaries as exact JSON payloads (see
:mod:`~repro.experiments.diskcache`): a parallel run is bit-identical to a
sequential one because the simulation is deterministic and the
serialization is lossless.

The cache key includes the active :class:`~repro.sim.config.SystemConfig`
(a frozen, hashable dataclass), so tests or ablations that swap
``repro.sim.config.DEFAULT_CONFIG`` never read results produced under a
different machine.  ``GpufsUnsupported`` outcomes are stored as *reason
markers*, never exception objects, so every cache hit raises a fresh
exception (re-raising one shared instance would mutate its
``__traceback__`` across callers).
"""

from __future__ import annotations

import atexit
import os
from dataclasses import dataclass
from typing import Callable, Iterable

from ..host.gpufs import GpufsUnsupported
from ..sim import config as _config
from ..sim.config import SystemConfig
from ..sim.trace import ProfileSink, ProfileSummary, record_events
from ..workloads import Mode, RunResult, gpmbench_suite
from .diskcache import (
    ResultCache,
    profile_from_record,
    profile_to_record,
    result_from_record,
    result_to_record,
)


def _current_config() -> SystemConfig:
    """The configuration new systems will be built with, read dynamically."""
    return _config.DEFAULT_CONFIG


@dataclass(frozen=True)
class _Unsupported:
    """Memoised marker for a run the mode cannot execute (GPUfs)."""

    reason: str


@dataclass(frozen=True)
class RunRequest:
    """One (workload, mode) run an artefact needs, optionally profiled."""

    workload: str
    mode: Mode
    profiled: bool = False

    @property
    def sort_key(self) -> tuple:
        return (self.workload, self.mode.value, self.profiled)


#: (workload name, mode, config) -> RunResult | _Unsupported
_cache: dict[tuple[str, Mode, SystemConfig], RunResult | _Unsupported] = {}
#: (workload name, mode, config) -> (RunResult, event-derived profile)
_profile_cache: dict[tuple[str, Mode, SystemConfig], tuple[RunResult, ProfileSummary]] = {}

#: Persistent cache shared across processes; ``None`` keeps the engine
#: memory-only (the library default - the CLI opts in).
_disk_cache: ResultCache | None = None
#: Pool width used when ``prefetch`` is not given an explicit ``jobs``.
_default_jobs: int = 1

#: Workloads runnable by name beyond the Fig. 9 lineup (e.g. the
#: Section 4.3 binomial counter-example), registered by their consumers.
_extra_workloads: dict[str, Callable[[], object]] = {}

#: The engine's persistent fork pool (see :func:`shared_pool`).
_pool = None
_pool_width = 0


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
    """Pool width for prefetches that do not pass ``jobs`` explicitly."""
    global _default_jobs
    _default_jobs = max(1, int(jobs))


def get_default_jobs() -> int:
    return _default_jobs


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    Container CPU quotas and taskset masks make ``os.cpu_count()`` a lie;
    the scheduler affinity set is what the fork pool can really use.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def effective_jobs(jobs: int) -> int:
    """Clamp a requested pool width to the CPUs actually available.

    The simulation is pure Python compute, so forking more workers than
    cores strictly loses: on a 1-core host a 2-worker cold ``run_all`` of
    a small artefact subset ran at 0.90x sequential - all contention and
    fork overhead, no parallelism.  A clamped width of 1 skips the pool
    entirely.
    """
    return max(1, min(int(jobs), available_cpus()))


def shared_pool(jobs: int):
    """The engine's persistent fork pool, reused across waves and calls.

    Fork-pool startup used to be paid twice per ``run_all`` (once for the
    prefetch wave, once for the table builders) and again on every later
    batch; on a small artefact subset that overhead alone pushed a
    parallel run *slower* than a sequential one.  Workers never rely on
    fork-time state: runs always execute fresh (:func:`_execute`) and table
    builders receive the run memo and the active config explicitly, so one
    long-lived pool is safe to share.
    """
    global _pool, _pool_width
    jobs = max(2, int(jobs))
    if _pool is not None and _pool_width != jobs:
        shutdown_pool()
    if _pool is None:
        import multiprocessing as mp

        _pool = mp.get_context("fork").Pool(jobs)
        _pool_width = jobs
    return _pool


def shutdown_pool() -> None:
    """Tear down the shared fork pool (no-op when none is live)."""
    global _pool, _pool_width
    if _pool is not None:
        _pool.terminate()
        _pool.join()
        _pool = None
        _pool_width = 0


atexit.register(shutdown_pool)


def register_workload(name: str, factory: Callable[[], object]) -> None:
    """Make a non-lineup workload runnable (and cacheable) by name."""
    _extra_workloads[name] = factory


def workload_names() -> list[str]:
    return [w.name for w in gpmbench_suite()]


def modes_matrix(*modes: Mode, profiled: bool = False) -> list[RunRequest]:
    """Every lineup workload crossed with the given modes."""
    return [RunRequest(name, mode, profiled)
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


def adopt_config(config: SystemConfig | None) -> None:
    """Make ``config`` the active machine configuration (``None``: keep).

    Pool tasks ship the caller's config explicitly because the shared fork
    pool outlives the fork point: a worker's inherited ``DEFAULT_CONFIG``
    can predate an ablation's swap.
    """
    if config is not None and config != _config.DEFAULT_CONFIG:
        _config.DEFAULT_CONFIG = config


def _execute(workload: str, mode_value: str, profiled: bool,
             config: SystemConfig | None = None) -> dict:
    """Run one workload fresh; return its serialized payload.

    Module-level and picklable: this is the unit of work the fork pool
    dispatches (the same pattern as ``repro.check.explorer``).  Returning
    payloads rather than live objects keeps the parallel and sequential
    paths on one serialization, so their results cannot diverge.
    """
    adopt_config(config)
    mode = Mode(mode_value)
    try:
        if profiled:
            sink = ProfileSink()
            with record_events(sink):
                result = _fresh(workload).run(mode)
            return {"result": result_to_record(result),
                    "profile": profile_to_record(sink.summary)}
        return {"result": result_to_record(_fresh(workload).run(mode))}
    except GpufsUnsupported as exc:
        return {"unsupported": exc.reason}


def _execute_litmus(test_payload: dict, point_spec: str, mutant: str | None,
                    max_frontiers: int,
                    config: SystemConfig | None = None) -> dict:
    """Run one litmus (test, config-point, mutant) fresh; pool-dispatchable.

    Imported lazily both ways (``repro.check.litmus`` calls
    :func:`run_litmus_batch`, which dispatches back here) to keep the
    check/experiments layers import-cycle-free.
    """
    adopt_config(config)
    from ..check.litmus import execute_point

    return execute_point(test_payload, point_spec, mutant=mutant,
                         max_frontiers=max_frontiers)


def run_litmus_batch(tasks: list[tuple], jobs: int | None = None) -> list[dict]:
    """Satisfy a batch of litmus tasks: disk cache, else (parallel) runs.

    Each task is ``(test_payload, point_spec, mutant, max_frontiers)`` -
    plain JSON-able values, exactly what one :func:`_execute_litmus` call
    takes and what keys the disk cache (so repeated matrix points across
    fuzzing sessions are free).  Misses fan out over the engine's shared
    fork pool with ``chunksize=1``, like workload prefetches.
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
    jobs = effective_jobs(_default_jobs if jobs is None else int(jobs))
    if jobs > 1 and len(pending) > 1:
        args = [tasks[i] + (config,) for i in pending]
        payloads = shared_pool(jobs).starmap(_execute_litmus, args,
                                             chunksize=1)
    else:
        payloads = [_execute_litmus(*tasks[i], config) for i in pending]
    for i, payload in zip(pending, payloads):
        results[i] = payload
        if _disk_cache is not None:
            _disk_cache.store_litmus(tasks[i], config, payload)
    return results


def _memo_satisfies(req: RunRequest, config: SystemConfig) -> bool:
    key = (req.workload, req.mode, config)
    if req.profiled:
        return key in _profile_cache or isinstance(_cache.get(key), _Unsupported)
    return key in _cache


def _install_payload(req: RunRequest, config: SystemConfig, payload: dict) -> None:
    key = (req.workload, req.mode, config)
    if "unsupported" in payload:
        _cache[key] = _Unsupported(payload["unsupported"])
        return
    result = result_from_record(payload["result"])
    if "profile" in payload:
        _profile_cache[key] = (result, profile_from_record(payload["profile"]))
        _cache.setdefault(key, result)
    else:
        _cache[key] = result


def _obtain(req: RunRequest) -> None:
    """Ensure the memo satisfies ``req`` (disk cache, else a fresh run)."""
    config = _current_config()
    if _memo_satisfies(req, config):
        return
    if _disk_cache is not None:
        payload = _disk_cache.load_run(req.workload, req.mode, req.profiled, config)
        if payload is not None:
            _install_payload(req, config, payload)
            return
    payload = _execute(req.workload, req.mode.value, req.profiled)
    _install_payload(req, config, payload)
    if _disk_cache is not None:
        _disk_cache.store_run(req.workload, req.mode, req.profiled, config, payload)


def snapshot_memo(requests: Iterable) -> list[tuple]:
    """Serialize the memo entries answering ``requests`` for pool shipment.

    The table-builder wave used to depend on forking *after* the prefetch
    so workers inherited the warm memo; with the shared pool the fork may
    predate the runs, so the memo travels with the task instead.
    """
    config = _current_config()
    out: list[tuple] = []
    for req in _normalize(requests):
        key = (req.workload, req.mode, config)
        if req.profiled and key in _profile_cache:
            result, prof = _profile_cache[key]
            payload = {"result": result_to_record(result),
                       "profile": profile_to_record(prof)}
        elif key in _cache:
            val = _cache[key]
            payload = ({"unsupported": val.reason}
                       if isinstance(val, _Unsupported)
                       else {"result": result_to_record(val)})
        else:
            continue
        out.append((req.workload, req.mode.value, req.profiled, payload))
    return out


def install_memo(entries: list[tuple]) -> None:
    """Install :func:`snapshot_memo` entries into this process's memo."""
    config = _current_config()
    for workload, mode_value, profiled, payload in entries:
        _install_payload(RunRequest(workload, Mode(mode_value), profiled),
                         config, payload)


def _normalize(requests: Iterable) -> list[RunRequest]:
    out = []
    for req in requests:
        if isinstance(req, RunRequest):
            out.append(req)
        else:
            name, mode, *rest = req
            out.append(RunRequest(name, Mode(mode), bool(rest and rest[0])))
    return out


# --------------------------------------------------------------------------
# public API
# --------------------------------------------------------------------------


def prefetch(requests: Iterable, jobs: int | None = None) -> None:
    """Satisfy a batch of run requests, fanning misses over a fork pool.

    Deduplicates the requests (a profiled run subsumes its plain twin),
    satisfies what it can from the memo and the disk cache, and executes
    the rest - with ``multiprocessing`` ``fork`` workers when ``jobs > 1``
    (default: the engine-wide setting of :func:`set_default_jobs`).  After
    the call every request is answerable from the memo, so subsequent
    ``run_workload`` calls are hits.
    """
    config = _current_config()
    requests = _normalize(requests)
    profiled = {(r.workload, r.mode) for r in requests if r.profiled}
    deduped: dict[tuple, RunRequest] = {}
    for req in requests:
        if not req.profiled and (req.workload, req.mode) in profiled:
            continue  # the profiled twin seeds the plain memo too
        deduped.setdefault((req.workload, req.mode, req.profiled), req)
    pending = sorted(
        (r for r in deduped.values() if not _memo_satisfies(r, config)),
        key=lambda r: r.sort_key,
    )
    if _disk_cache is not None:
        still = []
        for req in pending:
            payload = _disk_cache.load_run(req.workload, req.mode,
                                           req.profiled, config)
            if payload is not None:
                _install_payload(req, config, payload)
            else:
                still.append(req)
        pending = still
    jobs = effective_jobs(_default_jobs if jobs is None else int(jobs))
    if jobs > 1 and len(pending) > 1:
        args = [(r.workload, r.mode.value, r.profiled, config)
                for r in pending]
        # chunksize=1: run times vary by 100x across (workload, mode),
        # so static chunking would serialise behind the slow ones.
        payloads = shared_pool(jobs).starmap(_execute, args, chunksize=1)
        for req, payload in zip(pending, payloads):
            _install_payload(req, config, payload)
            if _disk_cache is not None:
                _disk_cache.store_run(req.workload, req.mode, req.profiled,
                                      config, payload)
    else:
        for req in pending:
            _obtain(req)


def run_workloads_parallel(requests: Iterable, jobs: int | None = None
                           ) -> list[RunResult | None]:
    """Execute the deduplicated request set in parallel; gather in order.

    Returns one entry per input request (``None`` where the mode cannot
    run the workload, e.g. GPUfs).  Results are bit-identical to
    sequential execution: the simulation is deterministic and results
    cross the pool as exact JSON payloads.
    """
    requests = _normalize(requests)
    prefetch(requests, jobs=jobs)
    out: list[RunResult | None] = []
    for req in requests:
        try:
            if req.profiled:
                out.append(run_workload_profiled(req.workload, req.mode)[0])
            else:
                out.append(run_workload(req.workload, req.mode))
        except GpufsUnsupported:
            out.append(None)
    return out


def run_workload(name: str, mode: Mode) -> RunResult:
    """Run (or recall) one workload under one mode.

    Raises :class:`GpufsUnsupported` for the GPUfs-incompatible workloads,
    exactly as the real GPUfs port would fail - a *fresh* exception object
    per call, never a cached one.
    """
    _obtain(RunRequest(name, mode))
    out = _cache[(name, mode, _current_config())]
    if isinstance(out, _Unsupported):
        raise GpufsUnsupported(out.reason)
    return out


def run_workload_profiled(name: str, mode: Mode) -> tuple[RunResult, ProfileSummary]:
    """Run one workload with a :class:`ProfileSink` attached to its machines.

    Returns the run result plus the persistence profile derived purely from
    the event stream (windowed to the workload's measured section).  The
    run also populates the plain :func:`run_workload` cache.
    """
    _obtain(RunRequest(name, mode, profiled=True))
    key = (name, mode, _current_config())
    if key not in _profile_cache and isinstance(_cache.get(key), _Unsupported):
        raise GpufsUnsupported(_cache[key].reason)
    return _profile_cache[key]


def clear_cache() -> None:
    """Drop the in-process memo (the disk cache is untouched)."""
    _cache.clear()
    _profile_cache.clear()
