"""The persistency-model layer: registries, the eADR shim, model hooks.

Unit-level coverage of ``repro.sim.persistency``: model/mode registry
lookups error usefully on unknown names, the legacy ``eadr`` boolean
resolves through the registry, window delegation reproduces the DDIO
toggle, and the adaptive model's staging machinery keeps its ordering and
crash promises (staged writes flush durably at window end, a direct write
flushes the region's staged backlog first, a crash drops staged data).
"""

import numpy as np
import pytest

from repro.core.persist import gpm_persist_begin, gpm_persist_end
from repro.sim.events import DdioToggle, EpochBoundary, event_to_record
from repro.sim.machine import Machine
from repro.sim.persistency import (
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
    resolve_model,
)
from repro.system import System
from repro.workloads.base import Mode


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------


def test_model_registry_contents():
    assert set(known_models()) >= {"strict", "eadr", "epoch", "relaxed",
                                   "adaptive"}
    for name, cls in MODEL_REGISTRY.items():
        assert cls.name == name
        assert cls.fence_policy in ("strict", "epoch", "relaxed")


def test_make_model_unknown_name_lists_known():
    with pytest.raises(ValueError) as err:
        make_model("totally-bogus")
    msg = str(err.value)
    assert "totally-bogus" in msg
    for name in known_models():
        assert name in msg


def test_mode_registry_matches_mode_enum():
    # The Mode enum is a view over MODE_REGISTRY: same names, both ways.
    assert set(known_mode_names()) == {m.value for m in Mode}
    for mode in Mode:
        entry = mode_entry(mode.value)
        assert entry.model in MODEL_REGISTRY
        assert mode.data_on_pm == entry.data_on_pm
        assert mode.in_kernel_persist == entry.in_kernel_persist
        assert mode.needs_eadr == entry.needs_eadr
        assert mode.persistency_model == entry.model


@pytest.mark.parametrize("mode,model", [
    ("gpm", "strict"), ("gpm-epoch", "epoch"), ("gpm-eadr", "eadr"),
    ("gpm-adaptive", "adaptive"),
])
def test_mode_to_model_pins(mode, model):
    assert mode_entry(mode).model == model
    assert Mode(mode).persistency_model == model


def test_mode_entry_unknown_name_lists_known():
    with pytest.raises(ValueError) as err:
        mode_entry("gpm-bogus")
    msg = str(err.value)
    assert "gpm-bogus" in msg and "gpm-epoch" in msg and "cap-mm" in msg


def test_mode_from_name_errors_on_unknown():
    assert Mode.from_name("gpm-epoch") is Mode.GPM_EPOCH
    with pytest.raises(ValueError):
        Mode.from_name("nope")


def test_register_mode_rejects_unknown_model():
    with pytest.raises(ValueError):
        register_mode(ModeEntry(name="x", model="no-such-model"))


# ---------------------------------------------------------------------------
# resolve_model: model specs to instances
# ---------------------------------------------------------------------------


def test_resolve_model_default_names_and_instances():
    assert type(resolve_model(None)) is Strict
    assert type(resolve_model("eadr")) is EadrStrict
    assert type(resolve_model("epoch")) is Epoch
    inst = Relaxed()
    assert resolve_model(inst) is inst


def test_resolve_model_rejects_bad_specs():
    with pytest.raises(ValueError):
        resolve_model("no-such-model")
    with pytest.raises(TypeError):
        resolve_model(42)


def test_system_accepts_model_names_and_instances():
    assert type(System(persistency="adaptive").persistency) is AdaptivePath
    model = Epoch()
    assert System(persistency=model).persistency is model


# ---------------------------------------------------------------------------
# window delegation
# ---------------------------------------------------------------------------


def _toggles(events):
    return [e for e in events if e["event"] == "ddio_toggle"]


def _collect(system):
    events = []
    system.events.subscribe(lambda ts, ev: events.append(event_to_record(ts, ev)))
    return events


@pytest.mark.parametrize("name,expects_toggle", [
    ("strict", True), ("epoch", True), ("relaxed", True),
    ("eadr", False), ("adaptive", False),
])
def test_window_toggle_per_model(name, expects_toggle):
    system = System(persistency=name)
    events = _collect(system)
    t0 = system.clock.now
    gpm_persist_begin(system)
    gpm_persist_end(system)
    toggles = _toggles(events)
    if expects_toggle:
        assert [t["enabled"] for t in toggles] == [False, True]
        assert system.clock.now > t0  # the perfctrlsts_0 writes cost time
    else:
        assert toggles == []
    assert system.machine.ddio_enabled


# ---------------------------------------------------------------------------
# the adaptive data path
# ---------------------------------------------------------------------------


def _adaptive_system():
    system = System(persistency="adaptive")
    region = system.machine.alloc_pm("/pm/x", 1 << 20)
    return system, region


def test_adaptive_outside_window_uses_default_path():
    system, region = _adaptive_system()
    region.write_bytes(0, np.zeros(64, dtype=np.uint8) + 7)
    system.machine.io_write_arrival(region, [0], [64])
    # DDIO stays on outside windows: the write parks volatile in the LLC.
    assert not np.any(region.persisted_view(np.uint8, 0, 64) == 7)


def test_adaptive_staged_writes_become_durable_at_window_end():
    system, region = _adaptive_system()
    gpm_persist_begin(system)
    region.write_bytes(0, np.zeros(64, dtype=np.uint8) + 9)
    t = system.machine.io_write_arrival(region, [0], [64])  # small -> staged
    assert t == 0.0
    assert not np.any(region.persisted_view(np.uint8, 0, 64) == 9)
    before = system.clock.now
    gpm_persist_end(system)
    assert np.all(region.persisted_view(np.uint8, 0, 64) == 9)
    assert system.clock.now > before  # the bulk flush costs media time


def test_adaptive_large_writes_take_direct_path():
    system, region = _adaptive_system()
    nbytes = 4096  # >= the 256 B XPLine threshold
    gpm_persist_begin(system)
    region.write_bytes(0, np.zeros(nbytes, dtype=np.uint8) + 5)
    t = system.machine.io_write_arrival(region, [0], [nbytes])
    assert t > 0.0  # direct media write charges time at the fence
    assert np.all(region.persisted_view(np.uint8, 0, nbytes) == 5)
    gpm_persist_end(system)


def test_adaptive_direct_flushes_staged_backlog_first():
    # Per-region persist order: data staged earlier must not be less
    # durable than a later direct write to the same region.
    system, region = _adaptive_system()
    gpm_persist_begin(system)
    region.write_bytes(0, np.zeros(64, dtype=np.uint8) + 3)
    system.machine.io_write_arrival(region, [0], [64])        # staged
    region.write_bytes(4096, np.zeros(4096, dtype=np.uint8) + 4)
    system.machine.io_write_arrival(region, [4096], [4096])   # direct
    # The direct write's arrival made the staged backlog durable too.
    assert np.all(region.persisted_view(np.uint8, 0, 64) == 3)
    assert np.all(region.persisted_view(np.uint8, 4096, 4096) == 4)
    gpm_persist_end(system)


def test_adaptive_crash_drops_staged_writes():
    system, region = _adaptive_system()
    gpm_persist_begin(system)
    region.write_bytes(0, np.zeros(64, dtype=np.uint8) + 11)
    system.machine.io_write_arrival(region, [0], [64])  # staged, volatile
    system.crash()
    assert not np.any(region.visible[:64] == 11)
    # Model state reset: a fresh window starts with nothing staged.
    model = system.persistency
    assert model._staged == {} and model._window_depth == 0


def test_adaptive_ema_follows_warp_drains():
    from repro.sim.events import WarpDrain

    system, _ = _adaptive_system()
    model = system.persistency
    assert model._ema_segment_bytes is None
    system.events.emit(WarpDrain(region="r", segments=4, nbytes=4096))
    assert model._ema_segment_bytes == pytest.approx(1024.0)
    system.events.emit(WarpDrain(region="r", segments=8, nbytes=64))
    assert model._ema_segment_bytes == pytest.approx(0.8 * 1024.0 + 0.2 * 8.0)


def test_nested_windows_flush_only_at_outermost_exit():
    # gpm_memset/gpm_memcpy open their own windows inside workload windows.
    system, region = _adaptive_system()
    gpm_persist_begin(system)
    gpm_persist_begin(system)
    region.write_bytes(0, np.zeros(32, dtype=np.uint8) + 6)
    system.machine.io_write_arrival(region, [0], [32])
    gpm_persist_end(system)  # inner exit: still inside the outer window
    assert not np.any(region.persisted_view(np.uint8, 0, 32) == 6)
    gpm_persist_end(system)
    assert np.all(region.persisted_view(np.uint8, 0, 32) == 6)


# ---------------------------------------------------------------------------
# EpochBoundary event plumbing
# ---------------------------------------------------------------------------


def test_epoch_boundary_event_round_trips():
    from repro.sim.events import EVENT_TYPES, event_from_record

    assert EVENT_TYPES["epoch_boundary"] is EpochBoundary
    assert EpochBoundary.frontier_kind == "epoch-boundary"
    rec = event_to_record(1.5, EpochBoundary(epoch=3))
    ts, ev = event_from_record(rec)
    assert ts == 1.5 and isinstance(ev, EpochBoundary) and ev.epoch == 3


def test_machine_carries_model_and_describe():
    machine = Machine(persistency="epoch")
    assert machine.persistency.name == "epoch"
    assert not machine.eadr
    for name in known_models():
        assert make_model(name).describe()


def test_custom_model_registration_roundtrip():
    class Custom(PersistencyModel):
        name = "custom-test"
        fence_policy = "epoch"

    from repro.sim.persistency import register_model

    register_model(Custom)
    try:
        assert type(make_model("custom-test")) is Custom
        entry = register_mode(ModeEntry(name="gpm-custom-test",
                                        model="custom-test", data_on_pm=True))
        assert not entry.needs_eadr
        assert Machine(persistency="custom-test").persistency.name == "custom-test"
    finally:
        MODEL_REGISTRY.pop("custom-test", None)
        MODE_REGISTRY.pop("gpm-custom-test", None)
