"""Trace capture and export for the hardware event bus.

Two helpers for consumers of :mod:`repro.sim.events` live here:

* :class:`TraceRecorder` - keeps the ordered ``(timestamp, event)`` stream
  and exports it as JSONL (one record per line, replayable through
  :func:`~repro.sim.events.stats_from_events`) or as a Chrome-trace JSON
  loadable in ``chrome://tracing`` / Perfetto;
* :func:`record_events` - a context manager that attaches a recorder to
  every machine created inside it, which is how the
  ``python -m repro trace`` CLI observes systems built deep inside a
  workload's ``run()``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from .events import (
    BackgroundPersist,
    Crash,
    CpuDrain,
    CpuPmWrite,
    DdioToggle,
    DmaTransfer,
    DramWrite,
    Event,
    HbmRead,
    HbmWrite,
    KernelLaunch,
    LlcEvict,
    LlcFlush,
    LlcInstall,
    OptaneEpoch,
    PcieRead,
    PcieWrite,
    PmRead,
    RegionAlloc,
    RegionFree,
    Syscall,
    SystemFence,
    TraceMark,
    WarpDrain,
    WindowMark,
    add_global_subscriber,
    event_from_record,
    event_to_record,
    remove_global_subscriber,
)

#: Chrome-trace track (``tid``) per event type, grouping the timeline by the
#: hardware unit that produced the event.
_TRACK_OF: dict[type, str] = {
    KernelLaunch: "gpu",
    SystemFence: "gpu",
    WarpDrain: "gpu",
    HbmWrite: "gpu",
    HbmRead: "gpu",
    PcieWrite: "pcie",
    PcieRead: "pcie",
    DmaTransfer: "pcie",
    OptaneEpoch: "optane",
    PmRead: "optane",
    BackgroundPersist: "optane",
    LlcInstall: "llc",
    LlcEvict: "llc",
    LlcFlush: "llc",
    DdioToggle: "machine",
    CpuDrain: "cpu",
    CpuPmWrite: "cpu",
    DramWrite: "cpu",
    Syscall: "cpu",
    RegionAlloc: "machine",
    RegionFree: "machine",
    Crash: "machine",
    WindowMark: "machine",
    TraceMark: "machine",
}

_TRACK_IDS = {name: i for i, name in enumerate(
    ["gpu", "pcie", "optane", "llc", "cpu", "machine"], start=1)}


class TraceRecorder:
    """Subscriber keeping the full ordered event stream of a run."""

    def __init__(self) -> None:
        self.records: list[tuple[float, Event]] = []

    def __call__(self, ts: float, event: Event) -> None:
        self.records.append((ts, event))

    def __len__(self) -> int:
        return len(self.records)

    def counts(self) -> dict[str, int]:
        """Events per type, for run summaries."""
        out: dict[str, int] = {}
        for _, event in self.records:
            out[event.etype] = out.get(event.etype, 0) + 1
        return out

    # -- JSONL -----------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON record per line; replayable via :func:`load_jsonl`."""
        lines = [json.dumps(event_to_record(ts, ev), separators=(",", ":"))
                 for ts, ev in self.records]
        return "\n".join(lines) + ("\n" if lines else "")

    def save_jsonl(self, path) -> str:
        path = str(path)
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())
        return path

    # -- Chrome trace ----------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """The ``chrome://tracing`` / Perfetto JSON object for this run.

        Simulated seconds map to trace microseconds.  Events that model a
        hardware duration (Optane epochs with media time) become complete
        ("X") slices; everything else is an instant ("i") on its unit's
        track, carrying its full payload in ``args``.
        """
        trace_events: list[dict] = []
        for track, tid in _TRACK_IDS.items():
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                "args": {"name": track},
            })
        for ts, event in self.records:
            track = _TRACK_OF.get(type(event), "machine")
            tid = _TRACK_IDS[track]
            record = event_to_record(ts, event)
            record.pop("ts")
            name = record.pop("event")
            ts_us = ts * 1e6
            duration_s = getattr(event, "media_time", 0.0)
            entry: dict = {
                "name": name, "pid": 0, "tid": tid, "ts": ts_us,
                "cat": track, "args": record,
            }
            if duration_s > 0.0:
                entry["ph"] = "X"
                entry["dur"] = duration_s * 1e6
            else:
                entry["ph"] = "i"
                entry["s"] = "t"
            trace_events.append(entry)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def save_chrome_trace(self, path) -> str:
        path = str(path)
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh)
        return path


def load_jsonl(path) -> list[tuple[float, Event]]:
    """Load a saved JSONL trace back into ``(timestamp, event)`` pairs."""
    out: list[tuple[float, Event]] = []
    with open(str(path)) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(event_from_record(json.loads(line)))
    return out


# --------------------------------------------------------------------------
# capture scope
# --------------------------------------------------------------------------


@contextmanager
def record_events(subscriber=None):
    """Attach a subscriber to every machine created inside the block.

    Yields the subscriber (a fresh :class:`TraceRecorder` by default).  Used
    by the trace CLI and tests to observe systems a workload builds
    internally::

        with record_events() as recorder:
            result = workload.run(Mode.GPM)
        recorder.save_chrome_trace("reports/trace.json")
    """
    subscriber = subscriber if subscriber is not None else TraceRecorder()
    add_global_subscriber(subscriber)
    try:
        yield subscriber
    finally:
        remove_global_subscriber(subscriber)
