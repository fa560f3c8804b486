"""Simulated hardware substrate for the GPM reproduction.

This package models the machine of the paper's Table 3 - a Xeon server with
Optane persistent memory and a PCIe-attached NVIDIA GPU - at the level of
detail GPM's mechanisms depend on: persistence domains, the DDIO/LLC
volatility gap, Optane's pattern-dependent bandwidth, and the PCIe link's
bounded concurrency.
"""

from .clock import SimClock, Span
from .config import DEFAULT_CONFIG, SystemConfig
from .crash import CrashInjector, SimulatedCrash
from .events import (
    EVENT_TYPES,
    Event,
    EventBus,
    StatsAggregator,
    event_from_record,
    event_to_record,
    stats_from_events,
)
from .machine import Machine
from .memory import CRASH_POISON, MemKind, Region
from .optane import OptaneModel
from .pcie import PcieModel
from .persistency import (
    MODE_REGISTRY,
    MODEL_REGISTRY,
    AdaptivePath,
    EadrStrict,
    Epoch,
    ModeEntry,
    PersistencyModel,
    Relaxed,
    Strict,
    known_mode_names,
    known_models,
    make_model,
    mode_entry,
    register_mode,
    register_model,
    resolve_model,
)
from .stats import MachineStats, WindowedStats
from .trace import TraceRecorder, load_jsonl, record_events

__all__ = [
    "AdaptivePath",
    "CRASH_POISON",
    "CrashInjector",
    "DEFAULT_CONFIG",
    "EVENT_TYPES",
    "EadrStrict",
    "Epoch",
    "Event",
    "EventBus",
    "MODE_REGISTRY",
    "MODEL_REGISTRY",
    "Machine",
    "ModeEntry",
    "PersistencyModel",
    "Relaxed",
    "Strict",
    "MachineStats",
    "MemKind",
    "OptaneModel",
    "PcieModel",
    "Region",
    "SimClock",
    "SimulatedCrash",
    "Span",
    "StatsAggregator",
    "SystemConfig",
    "TraceRecorder",
    "WindowedStats",
    "event_from_record",
    "event_to_record",
    "known_mode_names",
    "known_models",
    "load_jsonl",
    "make_model",
    "mode_entry",
    "record_events",
    "register_mode",
    "register_model",
    "resolve_model",
    "stats_from_events",
]
