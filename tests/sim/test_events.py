"""The hardware event bus, its subscribers, and trace round-trips."""

import json

import numpy as np
import pytest

from repro import System
from repro.core.mapping import gpm_map
from repro.core.persist import persist_window
from repro.sim import Machine, MemKind
from repro.sim.events import (
    EVENT_TYPES,
    KernelLaunch,
    OptaneEpoch,
    SystemFence,
    WarpDrain,
    WindowMark,
    event_from_record,
    event_to_record,
    stats_from_events,
)
from repro.sim.trace import TraceRecorder, load_jsonl, record_events
from repro.workloads.base import Mode, measure


def _gpm_write_run(system):
    """One persist-window kernel storing + fencing to PM; returns the region."""
    pm = system.machine.alloc_pm("pm", 1 << 16)

    def kernel(ctx):
        ctx.store(pm, ctx.global_id * 8, ctx.global_id + 1, dtype=np.uint64)
        ctx.persist()

    with persist_window(system):
        system.gpu.launch(kernel, 2, 64)
    return pm


class TestEventBus:
    def test_stats_is_aggregate_of_bus(self, system):
        recorder = TraceRecorder()
        system.events.subscribe(recorder)
        _gpm_write_run(system)
        assert len(recorder) > 0
        assert stats_from_events(recorder.records) == system.stats

    def test_unsubscribe(self, machine):
        recorder = TraceRecorder()
        machine.events.subscribe(recorder)
        machine.events.unsubscribe(recorder)
        machine.alloc_pm("pm", 4096)
        assert len(recorder) == 0

    def test_timestamps_follow_clock(self, system):
        recorder = TraceRecorder()
        system.events.subscribe(recorder)
        _gpm_write_run(system)
        ts = [t for t, _ in recorder.records]
        assert ts == sorted(ts)
        assert ts[-1] <= system.clock.now

    def test_global_subscriber_sees_new_machines(self):
        with record_events() as recorder:
            system = System()
            _gpm_write_run(system)
        assert stats_from_events(recorder.records) == system.stats
        # Outside the scope, new machines are no longer observed.
        n = len(recorder)
        Machine().alloc_pm("pm", 4096)
        assert len(recorder) == n


class TestEventSemantics:
    def test_kernel_launch_and_batched_fences(self, system):
        recorder = TraceRecorder()
        system.events.subscribe(recorder)
        _gpm_write_run(system)
        launches = [e for _, e in recorder.records if isinstance(e, KernelLaunch)]
        fences = [e for _, e in recorder.records if isinstance(e, SystemFence)]
        assert len(launches) == 1
        assert sum(f.count for f in fences) == 128  # one per thread
        assert system.stats.system_fences == 128

    def test_warp_drain_carries_merged_segments(self, system):
        recorder = TraceRecorder()
        system.events.subscribe(recorder)
        _gpm_write_run(system)
        drains = [e for _, e in recorder.records if isinstance(e, WarpDrain)]
        # 128 threads / 32 lanes = 4 warps, one fenced round each; the 32
        # adjacent 8 B stores of a warp merge into one 256 B segment.
        assert len(drains) == 4
        for d in drains:
            assert d.region == "pm"
            assert d.segments == 1
            assert d.nbytes == 32 * 8
        assert sum(d.nbytes for d in drains) == system.stats.pm_bytes_written

    def test_optane_epoch_accounts_media_amplification(self, machine):
        recorder = TraceRecorder()
        machine.events.subscribe(recorder)
        pm = machine.alloc_pm("pm", 1 << 16)
        machine.set_ddio(False)
        machine.io_write_arrival(pm, [64], [64])  # partial XPLine
        epochs = [e for _, e in recorder.records if isinstance(e, OptaneEpoch)]
        assert len(epochs) == 1
        assert epochs[0].logical_bytes == 64
        assert epochs[0].media_bytes == 256
        assert epochs[0].media_time > 0


class TestSerialisation:
    def test_every_type_round_trips(self):
        for name, cls in EVENT_TYPES.items():
            event = cls()
            ts, back = event_from_record(
                json.loads(json.dumps(event_to_record(1.5, event)))
            )
            assert ts == 1.5
            assert type(back) is cls
            assert back.etype == name

    def test_numpy_payloads_become_json(self):
        event = WarpDrain(region="pm", round_no=1, segments=2, nbytes=96,
                          starts=np.array([0, 128]), lengths=np.array([64, 32]))
        record = json.loads(json.dumps(event_to_record(0.25, event)))
        assert record["starts"] == [0, 128]
        _, back = event_from_record(record)
        assert back.starts == (0, 128)
        assert back.lengths == (64, 32)


class TestTraceExport:
    def test_jsonl_reconstructs_machine_stats(self, tmp_path):
        """The acceptance property: counters are a pure fold over the trace."""
        with record_events() as recorder:
            system = System()
            _gpm_write_run(system)
            system.crash()
        path = recorder.save_jsonl(tmp_path / "run.jsonl")
        replayed = stats_from_events(load_jsonl(path))
        assert replayed == system.stats
        assert system.stats.pm_bytes_written > 0

    def test_chrome_trace_shape(self, tmp_path, system):
        recorder = TraceRecorder()
        system.events.subscribe(recorder)
        _gpm_write_run(system)
        path = recorder.save_chrome_trace(tmp_path / "trace.json")
        with open(path) as fh:
            doc = json.load(fh)
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} >= {"M", "i", "X"}
        tracks = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert {"gpu", "pcie", "optane", "llc", "cpu", "machine"} <= tracks
        slices = [e for e in events if e["ph"] == "X"]
        assert slices and all(e["dur"] > 0 for e in slices)
        names = {e["name"] for e in events if e["ph"] != "M"}
        assert {"kernel_launch", "warp_drain", "optane_epoch"} <= names

    def test_recorder_counts(self, system):
        recorder = TraceRecorder()
        system.events.subscribe(recorder)
        _gpm_write_run(system)
        counts = recorder.counts()
        assert counts["kernel_launch"] == 1
        assert counts["warp_drain"] == 4


def _measured_gpm_window(setup=None):
    """Run a 128-thread persisting kernel under ``measure``; return the
    window, the system and the events between the window's marks."""
    with record_events() as recorder:
        system = System()
        pm = system.machine.alloc_pm("pm", 1 << 16)
        if setup is not None:
            setup(system, pm)

        def kernel(ctx):
            ctx.store(pm, ctx.global_id * 8, 7, dtype=np.uint64)
            ctx.persist()

        def run():
            with persist_window(system):
                system.gpu.launch(kernel, 2, 64)

        _, window = measure(system, run)
    begin, end = [i for i, (_, e) in enumerate(recorder.records)
                  if isinstance(e, WindowMark)]
    return window, system, recorder.records[begin + 1:end]


class TestProfileSink:
    """The persistence profile reads a measured window's stats: the fold of
    the events between the window's two ``WindowMark``s."""

    def test_windowed_profile_matches_window_stats(self):
        window, _, events = _measured_gpm_window()
        folded = stats_from_events(events)
        assert folded == window.stats
        assert folded.system_fences == 128
        assert folded.pm_bytes_written == 128 * 8
        assert folded.pm_bytes_written_internal == window.stats.pm_bytes_written_internal
        assert folded.pcie_transactions == window.stats.pcie_transactions
        assert folded.kernels_launched == 1

    def test_setup_outside_window_not_counted(self):
        def setup(system, pm):
            # Before the window: a DDIO-off streaming persist.
            system.machine.set_ddio(False)
            system.machine.io_write_arrival(pm, [0], [4096])

        window, system, events = _measured_gpm_window(setup)
        assert stats_from_events(events) == window.stats
        assert window.stats.system_fences == 128
        assert window.stats.pm_bytes_written == 128 * 8
        assert system.stats.pm_bytes_written == 128 * 8 + 4096


class TestRunnerProfile:
    def test_cache_keyed_by_config(self, monkeypatch):
        from repro.experiments import runner
        from repro.sim import config as sim_config
        from repro.sim.config import SystemConfig

        runner.clear_cache()
        try:
            base = runner.run_workload("PS", Mode.GPM)
            # A different machine must not read the cached result.
            monkeypatch.setattr(
                sim_config, "DEFAULT_CONFIG",
                SystemConfig(pcie_rtt_s=sim_config.DEFAULT_CONFIG.pcie_rtt_s * 2),
            )
            again = runner.run_workload("PS", Mode.GPM)
            assert again is not base
        finally:
            runner.clear_cache()


class TestEventfulCrashSemantics:
    def test_crash_event_emitted(self, machine):
        recorder = TraceRecorder()
        machine.events.subscribe(recorder)
        machine.crash()
        assert recorder.counts().get("crash") == 1

    def test_gpm_map_region_events(self, system):
        recorder = TraceRecorder()
        system.events.subscribe(recorder)
        gpm_map(system, "f", 4096, create=True)
        kinds = [(e.etype, getattr(e, "kind", None)) for _, e in recorder.records
                 if e.etype == "region_alloc"]
        assert (("region_alloc", MemKind.PM.value) in kinds)


@pytest.mark.parametrize("mode", ["gpm"])
def test_trace_cli(tmp_path, capsys, mode):
    """``python -m repro trace`` writes valid JSONL + Chrome-trace files."""
    from repro.__main__ import main

    assert main(["trace", "PS", "--mode", mode, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "events" in out
    jsonl = tmp_path / f"trace_ps_{mode}.jsonl"
    chrome = tmp_path / f"trace_ps_{mode}.json"
    assert jsonl.exists() and chrome.exists()
    replayed = stats_from_events(load_jsonl(jsonl))
    assert replayed.pm_bytes_written > 0
    assert replayed.system_fences > 0
    with open(chrome) as fh:
        doc = json.load(fh)
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
