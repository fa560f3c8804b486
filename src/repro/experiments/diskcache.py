"""Persistent on-disk cache of experiment run results.

The experiment engine (:mod:`repro.experiments.runner`) memoises results
per process; this module makes those results survive process exit.  Every
cached outcome is one JSON file under the cache directory (default
``~/.cache/repro``, overridable with ``REPRO_CACHE_DIR`` or the CLI's
``--cache-dir``), keyed by a stable digest of

* the entry kind and name (workload and persistence mode, artefact, or
  litmus point),
* the full :class:`~repro.sim.config.SystemConfig` the run executed under
  (every field, via ``dataclasses.asdict``), and
* a digest of the package source (:func:`source_digest`),

so a config ablation or any edit to the simulator can never read results
produced under a different machine or model.  Entries are written with an
atomic rename (temp file in the same directory + ``os.replace``) so
concurrent processes sharing one cache directory either see a complete
entry or none; unreadable/corrupt entries are treated as misses and
removed.

Serialization is exact: run payloads hold only JSON round-trip-safe values
(Python floats round-trip through ``json`` losslessly), which is what lets
parallel workers ship results to the parent - and warm cache hits replay
them - bit-identical to an in-process sequential run.

Three payload shapes are stored:

* run payloads - a serialized :class:`~repro.workloads.RunResult`, or an
  ``unsupported`` marker carrying the :class:`GpufsUnsupported` reason
  (markers are stored instead of pickled exceptions, so every cache hit
  can raise a *fresh* exception object);
* litmus payloads - one ``repro.check.litmus`` verdict per (test,
  config point, mutant, frontier budget);
* table payloads - a rendered :class:`ExperimentTable`, cached per
  artefact so a warm ``python -m repro all`` rebuilds nothing.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import re
import tempfile

import numpy as np

from ..sim.config import SystemConfig
from ..sim.stats import MachineStats, WindowedStats
from ..workloads import Mode, RunResult
from .results import ExperimentTable

#: Default cache location; ``REPRO_CACHE_DIR`` overrides it.
DEFAULT_CACHE_DIR = os.path.join("~", ".cache", "repro")


#: The ``repro`` package directory, whose source keys every entry.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR") or os.path.expanduser(DEFAULT_CACHE_DIR)


@functools.lru_cache(maxsize=None)
def source_digest(root: str) -> str:
    """sha256 over the sorted relative paths and bytes of every ``*.py``
    under ``root``; computed once per process and root.

    Keying entries on it means any edit to the simulator invalidates every
    entry it could have changed - a fixed version string would keep
    serving results of the code before the edit.
    """
    paths = []
    for dirpath, _, filenames in os.walk(root):
        paths.extend(os.path.join(dirpath, f) for f in filenames
                     if f.endswith(".py"))
    digest = hashlib.sha256()
    for rel in sorted(os.path.relpath(p, root) for p in paths):
        with open(os.path.join(root, rel), "rb") as fh:
            data = fh.read()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


# --------------------------------------------------------------------------
# exact JSON serialization
# --------------------------------------------------------------------------


def _plain(value):
    """Recursively convert numpy scalars/arrays to exact plain-Python values."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def config_digest(config: SystemConfig) -> str:
    """Stable hex digest over every field of a :class:`SystemConfig`."""
    blob = json.dumps(dataclasses.asdict(config), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def result_to_record(result: RunResult) -> dict:
    stats = result.window.stats
    return {
        "workload": result.workload,
        "mode": result.mode.value,
        "elapsed": result.elapsed,
        "window": {
            "elapsed": result.window.elapsed,
            "stats": {f.name: getattr(stats, f.name)
                      for f in dataclasses.fields(stats)},
            "extra": _plain(result.window.extra),
        },
        "extras": _plain(result.extras),
    }


def result_from_record(record: dict) -> RunResult:
    window = record["window"]
    return RunResult(
        workload=record["workload"],
        mode=Mode(record["mode"]),
        elapsed=record["elapsed"],
        window=WindowedStats(
            stats=MachineStats(**window["stats"]),
            elapsed=window["elapsed"],
            extra=dict(window.get("extra", {})),
        ),
        extras=dict(record["extras"]),
    )


def table_to_record(table: ExperimentTable) -> dict:
    return {
        "name": table.name,
        "title": table.title,
        "headers": list(table.headers),
        "rows": _plain(table.rows),
        "notes": list(table.notes),
    }


def table_from_record(record: dict) -> ExperimentTable:
    return ExperimentTable(
        name=record["name"],
        title=record["title"],
        headers=list(record["headers"]),
        rows=[list(row) for row in record["rows"]],
        notes=list(record["notes"]),
    )


# --------------------------------------------------------------------------
# the cache proper
# --------------------------------------------------------------------------


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


class ResultCache:
    """One directory of JSON entries, keyed by digest; corrupt-tolerant."""

    def __init__(self, directory: str | None = None,
                 version: str | None = None) -> None:
        self.directory = os.path.expanduser(directory or default_cache_dir())
        self.version = version if version is not None else source_digest(_PACKAGE_DIR)

    # -- keying ----------------------------------------------------------

    def _digest(self, kind: str, name: str, config: SystemConfig,
                **parts) -> str:
        record = {"kind": kind, "name": name, "version": self.version,
                  "config": dataclasses.asdict(config), **parts}
        blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def run_path(self, workload: str, mode: Mode, config: SystemConfig) -> str:
        digest = self._digest("run", workload, config, mode=mode.value)
        slug = _slug(f"{workload}-{mode.value}")
        return os.path.join(self.directory, f"run-{slug}-{digest[:16]}.json")

    def table_path(self, artefact: str, config: SystemConfig) -> str:
        digest = self._digest("table", artefact, config)
        return os.path.join(
            self.directory, f"table-{_slug(artefact)}-{digest[:16]}.json")

    # -- raw entries -----------------------------------------------------

    def _load(self, path: str) -> dict | None:
        try:
            with open(path) as fh:
                entry = json.load(fh)
            payload = entry["payload"]
            if not isinstance(payload, dict):
                raise ValueError("malformed payload")
            return payload
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt or truncated entry: drop it so the slot is rewritten.
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def _store(self, path: str, payload: dict, **meta) -> str:
        os.makedirs(self.directory, exist_ok=True)
        entry = {"version": self.version, **meta, "payload": payload}
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh, separators=(",", ":"))
            # Atomic within one filesystem: concurrent writers race to an
            # identical entry, readers never observe a partial file.
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        return path

    # -- run outcomes ----------------------------------------------------

    def load_run(self, workload: str, mode: Mode,
                 config: SystemConfig) -> dict | None:
        """The stored run payload, or ``None`` on miss/corruption.

        Payloads contain either ``result`` or an ``unsupported`` reason
        string.
        """
        path = self.run_path(workload, mode, config)
        payload = self._load(path)
        if payload is None:
            return None
        if "unsupported" in payload:
            return payload if isinstance(payload["unsupported"], str) else None
        if "result" not in payload:
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        return payload

    def store_run(self, workload: str, mode: Mode, config: SystemConfig,
                  payload: dict) -> str:
        return self._store(
            self.run_path(workload, mode, config), payload,
            workload=workload, mode=mode.value,
            config_digest=config_digest(config),
        )

    # -- litmus points ---------------------------------------------------

    def litmus_path(self, task: tuple, config: SystemConfig) -> str:
        """Cache path for one ``(test_payload, point_spec, mutant,
        max_frontiers)`` litmus task (see ``repro.check.litmus``)."""
        test_payload, point_spec, mutant, max_frontiers = task
        digest = self._digest("litmus", point_spec, config,
                              test=test_payload, mutant=mutant or "",
                              max_frontiers=max_frontiers)
        slug = _slug(f"{test_payload['seed']}-{test_payload['index']}"
                     f"-{point_spec}" + (f"-{mutant}" if mutant else ""))
        return os.path.join(self.directory,
                            f"litmus-{slug}-{digest[:16]}.json")

    def load_litmus(self, task: tuple, config: SystemConfig) -> dict | None:
        """The stored litmus verdict payload, or ``None`` on miss."""
        path = self.litmus_path(task, config)
        payload = self._load(path)
        if payload is None or "ok" not in payload:
            return None
        return payload

    def store_litmus(self, task: tuple, config: SystemConfig,
                     payload: dict) -> str:
        test_payload, point_spec, mutant, _ = task
        return self._store(
            self.litmus_path(task, config), payload,
            litmus=f"{test_payload['seed']}:{test_payload['index']}",
            point=point_spec, mutant=mutant or "",
            config_digest=config_digest(config),
        )

    # -- artefact tables -------------------------------------------------

    def load_table(self, artefact: str,
                   config: SystemConfig) -> ExperimentTable | None:
        payload = self._load(self.table_path(artefact, config))
        if payload is None:
            return None
        try:
            return table_from_record(payload)
        except (KeyError, TypeError):
            return None

    def store_table(self, artefact: str, config: SystemConfig,
                    table: ExperimentTable) -> str:
        return self._store(
            self.table_path(artefact, config), table_to_record(table),
            artefact=artefact, config_digest=config_digest(config),
        )
