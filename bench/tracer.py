"""Host-time attribution for the traced run, built from outside the program.

:class:`Tracer` wraps a fixed set of layer entry points (``TARGETS``) by
replacing the module or class attribute the program looks them up through,
and counts events with a global event-bus subscriber.  Nothing under
``src/`` changes; the untraced run installs none of this.

Every wrapped call charges its *self* time - its duration minus the time of
wrapped calls nested inside it - to a ``(function, parent)`` accumulator,
where the parent is the enclosing wrapped function or, at the top, the
benchmark item.  Passes and items are coarse spans: each is recorded whole,
with its parent span's id, for the Chrome trace.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter
from contextlib import contextmanager

from repro.sim.events import (
    LlcEvict,
    ServiceBatch,
    ServiceComplete,
    add_global_subscriber,
    remove_global_subscriber,
)
from repro.workloads import gpmbench_suite

CALLS_AND_SELF, SELF, CALLS = "cs", "s", "c"


def _function(module: str, name: str):
    return lambda: [(importlib.import_module(module), name)]


def _method(module: str, qualname: str):
    """``Class.method`` on the class and on every subclass overriding it."""

    def owners():
        cls_name, attr = qualname.split(".")
        stack, found = [getattr(importlib.import_module(module), cls_name)], []
        while stack:
            cls = stack.pop()
            if attr in vars(cls):
                found.append((cls, attr))
            stack.extend(cls.__subclasses__())
        return found

    return owners


def _all_methods(module: str, cls_name: str):
    def owners():
        cls = getattr(importlib.import_module(module), cls_name)
        return [(cls, name) for name, value in vars(cls).items()
                if isinstance(value, types.FunctionType)
                and not name.startswith("_")]

    return owners


def _lineup_runs():
    """``run`` of every lineup workload, on the class that defines it."""
    found = set()
    for workload in gpmbench_suite():
        owner = next(c for c in type(workload).__mro__ if "run" in vars(c))
        found.add((owner, "run"))
    return sorted(found, key=lambda pair: pair[0].__qualname__)


#: (metric prefix, reported stats, resolver of the attributes to wrap)
TARGETS = (
    ("experiments.run_workload", CALLS_AND_SELF,
     _function("repro.experiments.runner", "run_workload")),
    ("experiments.result_to_record", SELF,
     _function("repro.experiments.runner", "result_to_record")),
    ("workloads.Workload.run", SELF, _lineup_runs),
    ("gpu.launch", CALLS_AND_SELF, _method("repro.gpu.device", "Gpu.launch")),
    ("gpu.stream_copy", CALLS_AND_SELF,
     _method("repro.gpu.device", "Gpu.stream_copy")),
    ("gpu.scatter_store_bulk", SELF,
     _method("repro.gpu.device", "Gpu.scatter_store_bulk")),
    ("sim.llc.install_writes", CALLS_AND_SELF,
     _method("repro.sim.cache", "LastLevelCache.install_writes")),
    ("sim.llc.flush_range", CALLS_AND_SELF,
     _method("repro.sim.cache", "LastLevelCache.flush_range")),
    ("sim.llc.drop_range", CALLS_AND_SELF,
     _method("repro.sim.cache", "LastLevelCache.drop_range")),
    ("sim.optane.write_epoch", CALLS_AND_SELF,
     _method("repro.sim.optane", "OptaneModel.write_epoch")),
    ("sim.optane.write_epochs", CALLS_AND_SELF,
     _method("repro.sim.optane", "OptaneModel.write_epochs")),
    ("sim.optane.flush_lines", CALLS_AND_SELF,
     _method("repro.sim.optane", "OptaneModel.flush_lines")),
    ("sim.optane.write_flush_grain", CALLS_AND_SELF,
     _method("repro.sim.optane", "OptaneModel.write_flush_grain")),
    ("sim.machine.io_write_arrival", SELF,
     _method("repro.sim.machine", "Machine.io_write_arrival")),
    ("sim.machine.io_write_arrival_groups", SELF,
     _method("repro.sim.machine", "Machine.io_write_arrival_groups")),
    ("sim.machine.cpu_flush", SELF,
     _method("repro.sim.machine", "Machine.cpu_flush")),
    ("sim.memory.persist_ranges", SELF,
     _method("repro.sim.memory", "Region.persist_ranges")),
    ("sim.bulk.BulkTransfer.apply", CALLS_AND_SELF,
     _method("repro.sim.bulk", "BulkTransfer.apply")),
    ("sim.pcie", SELF, _all_methods("repro.sim.pcie", "PcieModel")),
    ("host.cap.persist_output", CALLS_AND_SELF,
     _method("repro.host.cap", "CapEngine.persist_output")),
    ("host.dma.device_to_host", CALLS_AND_SELF,
     _method("repro.host.dma", "DmaEngine.device_to_host")),
    ("host.dma.host_to_device", CALLS_AND_SELF,
     _method("repro.host.dma", "DmaEngine.host_to_device")),
    ("host.fs.write", CALLS_AND_SELF,
     _method("repro.host.filesystem", "DaxFilesystem.write")),
    ("host.fs.fsync", CALLS_AND_SELF,
     _method("repro.host.filesystem", "DaxFilesystem.fsync")),
    ("host.cpu.persist_range", CALLS_AND_SELF,
     _method("repro.host.cpu", "Cpu.persist_range")),
    ("host.cpu.persist_scattered", CALLS_AND_SELF,
     _method("repro.host.cpu", "Cpu.persist_scattered")),
    ("core.hcl.insert_warp", CALLS_AND_SELF,
     _method("repro.core.hcl", "HclLog.insert_warp")),
    ("core.hcl.insert", CALLS, _method("repro.core.hcl", "HclLog.insert")),
    ("core.gpmcp.checkpoint", SELF,
     _method("repro.core.checkpoint", "Gpmcp.checkpoint")),
    ("core.recovery.run", CALLS_AND_SELF,
     _method("repro.core.recovery", "RecoveryManager.run")),
    ("serve.admission.offer", CALLS_AND_SELF,
     _method("repro.serve.admission", "AdmissionController.offer")),
    ("serve.batcher.submit", CALLS_AND_SELF,
     _method("repro.serve.batcher", "Batcher.submit")),
    ("serve.batcher.flush", CALLS_AND_SELF,
     _method("repro.serve.batcher", "Batcher.flush")),
    ("serve.store.set_batch", CALLS_AND_SELF,
     _method("repro.serve.store", "ShardedKvStore.set_batch")),
    ("serve.store.get_batch", CALLS_AND_SELF,
     _method("repro.serve.store", "ShardedKvStore.get_batch")),
    ("serve.store.delete_batch", CALLS_AND_SELF,
     _method("repro.serve.store", "ShardedKvStore.delete_batch")),
    ("serve.traffic.streams", CALLS_AND_SELF,
     _method("repro.serve.traffic", "TrafficGenerator.streams")),
    ("serve.metrics.on_event", CALLS_AND_SELF,
     _method("repro.serve.metrics", "ServiceMetrics.on_event")),
    ("check.CrashExplorer.record", SELF,
     _method("repro.check.explorer", "CrashExplorer.record")),
    ("check.explore_frontier", CALLS_AND_SELF,
     _function("repro.check.explorer", "explore_frontier")),
    ("check.CrashOracle.execute", SELF,
     _method("repro.check.oracle", "CrashOracle.execute")),
    ("check.CrashOracle.recover", SELF,
     _method("repro.check.oracle", "CrashOracle.recover")),
    ("check.InvariantCheck.evaluate", SELF,
     _method("repro.check.oracle", "InvariantCheck.evaluate")),
    ("check.litmus.execute_point", CALLS_AND_SELF,
     _function("repro.check.litmus", "execute_point")),
)

#: Event types counted per pass.  Fixed here, not read from the program's
#: registry, so the metric set stays the one BENCHMARK.json declares.
EVENT_TYPES = (
    "kernel_launch", "system_fence", "warp_drain", "epoch_boundary",
    "hbm_write", "hbm_read", "pcie_write", "pcie_read", "dma_transfer",
    "optane_epoch", "pm_read", "background_persist", "llc_install",
    "llc_evict", "llc_flush", "ddio_toggle", "cpu_drain", "cpu_pm_write",
    "gpu_pm_write", "dram_write", "syscall", "service_request",
    "service_batch", "service_complete", "region_alloc", "region_free",
    "crash", "window_mark", "trace_mark",
)


def metrics() -> list[dict]:
    """Every per-layer metric a traced run reports, as BENCHMARK.json lists it.

    Calls and event counts are per pass; ``self_pct`` is self time as a
    share of traced host time; ``trace.*`` compares the traced run with the
    untraced one taken just before it.
    """
    rows = []
    for prefix, stats, _ in TARGETS:
        if stats in (CALLS_AND_SELF, CALLS):
            rows.append((f"{prefix}.calls", "count", "lower"))
        if stats in (CALLS_AND_SELF, SELF):
            rows.append((f"{prefix}.self_pct", "%", "lower"))
    rows += [("gpu.launch.warp_share", "fraction", "higher"),
             ("core.hcl.warp_insert_share", "fraction", "higher"),
             ("sim.llc.evicted_lines", "count", "lower"),
             ("serve.batch_occupancy", "fraction", "higher"),
             ("serve.coalesced_share", "fraction", "higher"),
             ("events.total", "count", "lower"),
             ("host_us_per_event", "us", "lower")]
    rows += [(f"events.{etype}", "count", "lower") for etype in EVENT_TYPES]
    rows += [("trace.unattributed_pct", "%", "lower"),
             ("trace.pass_s", "s", "lower"),
             ("trace.overhead_pct", "%", "lower")]
    return [{"name": n, "unit": u, "better": b} for n, u, b in rows]


class Tracer:
    """Wrap ``TARGETS``, fold self time per (function, parent), count events.

    ``clock`` is replaceable so tests can drive the self-time arithmetic.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._stack: list[list] = []        # open frames: [name, child seconds]
        self._open_spans: list[int] = []
        self.acc: dict[tuple[str, str | None], list] = {}   # -> [calls, self s]
        self.spans: list[dict] = []
        self.warp_launches = 0
        self.events: Counter = Counter()
        self.evicted_lines = 0
        self.batch_ops = self.batch_threads = 0
        self.completed = self.coalesced = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        stack, acc, clock = self._stack, self.acc, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                slot = acc.get((name, parent))
                if slot is None:
                    slot = acc[(name, parent)] = [0, 0.0]
                slot[0] += 1
                slot[1] += elapsed - frame[1]
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def install(self) -> None:
        for prefix, _, owners in TARGETS:
            hook = self._count_lane if prefix == "gpu.launch" else None
            for owner, attr in owners():
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(prefix, original, hook))
                self._patched.append((owner, attr, original))
        add_global_subscriber(self._on_event)

    def uninstall(self) -> None:
        remove_global_subscriber(self._on_event)
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _count_lane(self, result) -> None:
        self.warp_launches += result.lane == "warp"

    def _on_event(self, ts: float, event) -> None:
        cls = type(event)
        self.events[cls.etype] += 1
        if cls is LlcEvict:
            self.evicted_lines += event.lines
        elif cls is ServiceBatch:
            self.batch_ops += event.n_ops
            self.batch_threads += event.threads
        elif cls is ServiceComplete:
            self.completed += 1
            self.coalesced += event.coalesced

    # -- coarse spans ----------------------------------------------------------

    @contextmanager
    def span(self, cat: str, name: str):
        """A pass or an item: recorded whole, and the parent of its calls."""
        record = {"id": len(self.spans), "cat": cat, "name": name,
                  "parent": self._open_spans[-1] if self._open_spans else None}
        self.spans.append(record)
        self._open_spans.append(record["id"])
        frame = [name, 0.0]
        self._stack.append(frame)
        record["start"] = self.clock()
        try:
            yield
        finally:
            record["end"] = self.clock()
            self._stack.pop()
            self._open_spans.pop()
            duration = record["end"] - record["start"]
            record["self_s"] = duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration

    # -- reports -------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """``[calls, self seconds]`` per wrapped function, over all parents."""
        out: dict[str, list] = {}
        for (name, _), (calls, self_s) in self.acc.items():
            slot = out.setdefault(name, [0, 0.0])
            slot[0] += calls
            slot[1] += self_s
        return out

    def layer_metrics(self, passes: int, host_s: float) -> dict[str, float]:
        """The per-layer metrics of ``passes`` traced passes (``host_s`` long).

        Counts are per pass; ``self_pct`` is a share of traced host time.
        ``trace.pass_s`` and ``trace.overhead_pct`` are left to the caller.
        """
        totals = self.totals()
        out: dict[str, float] = {}
        for prefix, stats, _ in TARGETS:
            calls, self_s = totals.get(prefix, (0, 0.0))
            if stats in (CALLS_AND_SELF, CALLS):
                out[f"{prefix}.calls"] = calls / passes
            if stats in (CALLS_AND_SELF, SELF):
                out[f"{prefix}.self_pct"] = 100.0 * self_s / host_s
        launches = totals.get("gpu.launch", (0, 0.0))[0]
        warp_inserts = totals.get("core.hcl.insert_warp", (0, 0.0))[0]
        inserts = warp_inserts + totals.get("core.hcl.insert", (0, 0.0))[0]
        n_events = sum(self.events.values())
        out.update({
            "gpu.launch.warp_share": self.warp_launches / launches if launches else 0.0,
            "core.hcl.warp_insert_share": warp_inserts / inserts if inserts else 0.0,
            "sim.llc.evicted_lines": self.evicted_lines / passes,
            "serve.batch_occupancy": (self.batch_ops / self.batch_threads
                                      if self.batch_threads else 0.0),
            "serve.coalesced_share": (self.coalesced / self.completed
                                      if self.completed else 0.0),
            "events.total": n_events / passes,
            "host_us_per_event": 1e6 * host_s / n_events if n_events else 0.0,
        })
        for etype in EVENT_TYPES:
            out[f"events.{etype}"] = self.events[etype] / passes
        items = sum(s["self_s"] for s in self.spans if s["cat"] == "item")
        out["trace.unattributed_pct"] = 100.0 * items / host_s
        return out

    def detail(self) -> list[dict]:
        """Every (function, parent) accumulator, heaviest self time first."""
        rows = [{"function": name, "parent": parent, "calls": calls,
                 "self_s": self_s}
                for (name, parent), (calls, self_s) in self.acc.items()]
        return sorted(rows, key=lambda r: -r["self_s"])

    def chrome_events(self, pid: int, process: str) -> list[dict]:
        """The coarse spans as Chrome-trace complete events."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        events = [{"name": "process_name", "ph": "M", "pid": pid,
                   "args": {"name": process}}]
        for s in self.spans:
            events.append({
                "name": s["name"], "cat": s["cat"], "ph": "X", "pid": pid,
                "tid": 0, "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"id": s["id"], "parent": s["parent"],
                         "self_s": s["self_s"]},
            })
        return events
