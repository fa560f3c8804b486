"""Scalar-vs-warp lane parity: the dual-path equivalence harness.

Every converted workload runs twice from identical seeds - once with the
vectorized lane forced off (the reference interpreter), once on the warp
lane - and the two runs must agree on *everything an experiment can
observe*: elapsed simulated time, machine stats, the full timestamped
event stream, persisted and visible memory images byte for byte, and the
golden-report record ``repro all`` would serialise.
"""

import contextlib

import numpy as np
import pytest

from repro.check.frontier import FrontierRecorder, prune_frontiers
from repro.experiments.diskcache import result_to_record
from repro.gpu.warp import resolve_warp_impl, scalar_lane
from repro.pstruct.hashmap import _undo_kernel
from repro.sim import event_to_record
from repro.sim.crash import CrashInjector
from repro.workloads.base import Mode, make_system
from repro.workloads.bfs import BfsConfig, GraphBfs, bfs_kernel
from repro.workloads.binomial import BinomialConfig, BinomialOptions, pricing_kernel
from repro.workloads.db import (
    DbConfig,
    GpDb,
    insert_kernel,
    select_kernel,
    update_kernel,
    update_recovery_kernel,
)
from repro.workloads.kvs import GpKvs, KvsConfig, delete_kernel, set_kernel
from repro.workloads.prefix_sum import (
    PrefixSum,
    PrefixSumConfig,
    partial_sums_kernel,
)
from repro.workloads.srad import Srad, SradConfig, srad_plane_kernel


def _run_collected(factory, mode, forced_scalar):
    """Run a fresh workload instance, collecting the full event stream."""
    workload = factory()
    system = make_system(mode)
    events = []
    system.events.subscribe(
        lambda ts, ev: events.append(event_to_record(ts, ev))
    )
    if forced_scalar:
        with scalar_lane():
            result = workload.run(mode, system=system)
    else:
        result = workload.run(mode, system=system)
    regions = {
        name: (region.visible.copy(),
               None if region.persisted is None else region.persisted.copy())
        for name, region in system.machine._regions.items()
    }
    return workload, result, events, regions, system


CASES = [
    # The persistency-model modes ride the same harness: parity must hold
    # under every fence policy (strict, epoch, relaxed) and data path
    # (direct, adaptive staged), not just the seed's strict model.
    ("ps", lambda: PrefixSum(PrefixSumConfig(n=2048, block_dim=256)),
     [Mode.GPM, Mode.GPM_NDP, Mode.CAP_MM,
      Mode.GPM_EPOCH, Mode.GPM_RELAXED, Mode.GPM_ADAPTIVE]),
    ("kvs", lambda: GpKvs(KvsConfig(n_sets=512, batch_size=256, set_batches=2)),
     [Mode.GPM, Mode.GPM_EADR, Mode.CAP_MM,
      Mode.GPM_EPOCH, Mode.GPM_RELAXED, Mode.GPM_ADAPTIVE]),
    # Tiny table: intra-warp same-set collisions force the sequential
    # slot-selection fallback, including evictions.
    ("kvs-collide", lambda: GpKvs(KvsConfig(n_sets=16, batch_size=128,
                                            set_batches=3)),
     [Mode.GPM]),
    # GET batches exercise the warp-vectorized read path and the HBM mirror.
    ("kvs-mixed", lambda: GpKvs(KvsConfig(set_batches=1, batch_size=128,
                                          get_batches=2, get_batch_size=256)),
     [Mode.GPM]),
    ("bino", lambda: BinomialOptions(BinomialConfig(n_options=24, steps=16,
                                                    block_dim=32)),
     [Mode.GPM, Mode.CAP_MM]),
    # SRAD's per-plane stencil store kernel (streaming, unaligned): every
    # warp full, so every store takes the whole-warp coalesced route.
    ("srad", lambda: Srad(SradConfig(n=48, iterations=2)),
     [Mode.GPM, Mode.CAP_MM, Mode.GPM_EPOCH, Mode.GPM_RELAXED,
      Mode.GPM_ADAPTIVE]),
    # 45 x 45 pixels: each plane's grid ends in a partially masked warp.
    ("srad-tail", lambda: Srad(SradConfig(n=45, iterations=2)),
     [Mode.GPM, Mode.GPM_EPOCH, Mode.GPM_ADAPTIVE]),
    # BFS frontier expansion: ragged neighbour gathers, first-claim scatter
    # races, and the chained visit-order atomics.
    ("bfs", lambda: GraphBfs(BfsConfig(rows=16, cols=24, engine="kernel",
                                       shortcut_fraction=0.01)),
     [Mode.GPM, Mode.CAP_MM, Mode.GPM_EPOCH, Mode.GPM_RELAXED]),
    # gpDB INSERT: coalesced appends + thread 0's metadata-log entry.
    ("db-insert", lambda: GpDb("insert", DbConfig(
        capacity_rows=2048, initial_rows=512, insert_batch=256,
        insert_batches=2, block_dim=64)),
     [Mode.GPM, Mode.CAP_MM, Mode.GPM_EPOCH, Mode.GPM_RELAXED]),
    # gpDB UPDATE: scattered kernel-computed rows HCL-logged before the
    # two-column writes.
    ("db-update", lambda: GpDb("update", DbConfig(
        capacity_rows=2048, initial_rows=1024, update_batch=192,
        update_batches=2, block_dim=64)),
     [Mode.GPM, Mode.CAP_MM, Mode.GPM_EPOCH, Mode.GPM_RELAXED]),
    # A tiny non-power-of-two row count (lanes 24 apart hit the same row):
    # the Fibonacci stride collides inside a warp, forcing the
    # lane-at-a-time hazard fallback.
    ("db-update-collide", lambda: GpDb("update", DbConfig(
        capacity_rows=2048, initial_rows=24, update_batch=64,
        update_batches=2, block_dim=64)),
     [Mode.GPM]),
    # The conventional-log ablation: per-lane serialised appends.
    ("db-update-conv", lambda: GpDb("update", DbConfig(
        capacity_rows=2048, initial_rows=1024, update_batch=192,
        update_batches=1, block_dim=64, use_hcl=False)),
     [Mode.GPM]),
]

PARAMS = [
    pytest.param(factory, mode, id=f"{label}-{mode.value}")
    for label, factory, modes in CASES
    for mode in modes
]


@pytest.mark.parametrize("factory,mode", PARAMS)
def test_lanes_are_bit_identical(factory, mode):
    ws_s, rs, ev_s, regions_s, _ = _run_collected(factory, mode, True)
    ws_w, rw, ev_w, regions_w, _ = _run_collected(factory, mode, False)
    # Identical launch outcome and golden-report record.
    assert rs.elapsed == rw.elapsed
    assert result_to_record(rs) == result_to_record(rw)
    # Identical event streams, timestamps included.
    assert ev_s == ev_w
    # Identical memory state: every surviving region, both images.
    assert regions_s.keys() == regions_w.keys()
    for name in regions_s:
        vis_s, per_s = regions_s[name]
        vis_w, per_w = regions_w[name]
        assert np.array_equal(vis_s, vis_w), f"visible image differs: {name}"
        if per_s is None or per_w is None:
            assert per_s is per_w, f"persistence kind differs: {name}"
        else:
            assert np.array_equal(per_s, per_w), f"persisted image differs: {name}"


@pytest.mark.parametrize("factory,mode", PARAMS)
def test_lane_attribution(factory, mode):
    ws_w, *_ = _run_collected(factory, mode, False)
    assert ws_w._last_lane == "warp"
    ws_s, *_ = _run_collected(factory, mode, True)
    assert ws_s._last_lane == "scalar"


def test_conventional_log_ablation_stays_scalar():
    # Fig. 11a's lock-serialised log depends on per-thread interleaving.
    ws = GpKvs(KvsConfig(n_sets=512, batch_size=128, set_batches=1,
                         use_hcl=False))
    ws.run(Mode.GPM)
    assert ws._last_lane == "scalar"


def test_crash_injector_forces_scalar_lane():
    # No injector forces the scalar lane: thread-count arming, an unarmed
    # injector, repro.check's recorder and frontier arming all take the
    # warp lane; only a warp a thread-count crash cuts runs per thread.
    assert resolve_warp_impl(partial_sums_kernel) is not None
    assert resolve_warp_impl(set_kernel) is not None
    assert resolve_warp_impl(delete_kernel) is not None
    assert resolve_warp_impl(pricing_kernel) is not None
    assert resolve_warp_impl(bfs_kernel) is not None
    assert resolve_warp_impl(srad_plane_kernel) is not None
    assert resolve_warp_impl(insert_kernel) is not None
    assert resolve_warp_impl(update_kernel) is not None
    assert resolve_warp_impl(select_kernel) is not None
    assert resolve_warp_impl(update_recovery_kernel) is not None
    assert resolve_warp_impl(_undo_kernel) is not None

    def lanes_under(arm):
        system = make_system(Mode.GPM)
        if arm == "recorder":
            injector = FrontierRecorder()
        else:
            injector = CrashInjector(system.machine)
            if arm == "threads":
                injector.arm(1 << 40)  # armed, but never reached
            elif arm == "frontier":
                injector.arm_at_frontier(1 << 40)
        lanes = []
        orig = system.gpu.launch

        def spy(*args, **kwargs):
            res = orig(*args, **kwargs)
            lanes.append(res.lane)
            return res

        system.gpu.launch = spy
        PrefixSum(PrefixSumConfig(n=1024, block_dim=256)).run(
            Mode.GPM, system=system, crash_injector=injector)
        assert not injector.cuts_warp(32)
        return set(lanes)

    assert lanes_under("unarmed") == {"warp"}
    assert lanes_under("threads") == {"warp"}
    assert lanes_under("recorder") == {"warp"}
    assert lanes_under("frontier") == {"warp"}


def _kvs_delete_collected(config, mode, batches, forced_scalar):
    """Fill a gpKVS table, then delete ``batches`` on the chosen lane."""
    workload = GpKvs(config)
    system = make_system(mode)
    workload.run(mode, system=system)
    stored = workload._state[3].np
    keys = stored[stored != 0]
    events = []
    system.events.subscribe(lambda ts, ev: events.append(event_to_record(ts, ev)))
    lanes = []
    orig = system.gpu.launch

    def spy(*args, **kwargs):
        res = orig(*args, **kwargs)
        lanes.append(res.lane)
        return res

    system.gpu.launch = spy
    start = system.clock.now
    with scalar_lane() if forced_scalar else contextlib.nullcontext():
        present = [workload.delete_batch(batch(keys)) for batch in batches]
    images = {r.name: (r.visible.copy(),
                       None if r.persisted is None else r.persisted.copy())
              for r in system.machine.regions}
    return present, system.clock.now - start, events, images, lanes


_ABSENT = np.arange(10**9, 10**9 + 32, dtype=np.uint64)


def _interleave_absent(keys):
    present = keys[keys.size // 2:keys.size // 2 + 32]
    mixed = np.column_stack([present, _ABSENT[:present.size]]).ravel()
    return np.concatenate([_ABSENT, mixed])


#: Delete batches, each built from the keys the set phase stored.
_DELETE_BATCHES = [
    # Present keys only.
    lambda keys: keys[:keys.size // 3],
    # Every key twice in a row: the second lane of each pair finds its
    # key already gone and must log nothing (the sequential fallback).
    lambda keys: np.repeat(keys[keys.size // 3:keys.size // 3 + 32], 2),
    # Absent keys, then absent ones interleaved with present ones: the
    # first warp finds nothing.
    _interleave_absent,
]

DELETE_CASES = [
    pytest.param(KvsConfig(n_sets=512, batch_size=256, set_batches=2), mode,
                 id=f"kvs-{mode.value}")
    for mode in (Mode.GPM, Mode.GPM_EADR, Mode.CAP_MM, Mode.GPM_EPOCH,
                 Mode.GPM_RELAXED)
] + [
    # Tiny table: lanes of one warp share sets without sharing keys.
    pytest.param(KvsConfig(n_sets=16, batch_size=128, set_batches=3), Mode.GPM,
                 id="kvs-collide-gpm"),
    # The conventional-log ablation's lock-serialised log inserts.
    pytest.param(KvsConfig(n_sets=512, batch_size=128, set_batches=1, use_hcl=False),
                 Mode.GPM, id="kvs-conv-gpm"),
]


@pytest.mark.parametrize("config,mode", DELETE_CASES)
def test_kvs_delete_lane_parity(config, mode):
    present_s, t_s, ev_s, img_s, lanes_s = _kvs_delete_collected(
        config, mode, _DELETE_BATCHES, True)
    present_w, t_w, ev_w, img_w, lanes_w = _kvs_delete_collected(
        config, mode, _DELETE_BATCHES, False)
    assert set(lanes_s) == {"scalar"} and set(lanes_w) == {"warp"}
    assert present_s == present_w and present_w[0] > 0
    assert t_s == t_w
    assert ev_s == ev_w
    assert img_s.keys() == img_w.keys()
    for name, (vis_s, per_s) in img_s.items():
        vis_w, per_w = img_w[name]
        assert np.array_equal(vis_s, vis_w), name
        if per_s is None or per_w is None:
            assert per_s is per_w, name
        else:
            assert np.array_equal(per_s, per_w), name


def _hashmap_batches():
    rng = np.random.default_rng(5)
    keys = rng.choice(np.arange(1, 1 << 20, dtype=np.uint64), 320,
                      replace=False)
    return (keys[:160], keys[:160] * 3), (keys[96:], keys[96:] + 7)


def _hashmap_crash_recover(crash_after, forced_scalar):
    """Crash the second insert batch after ``crash_after`` threads, then
    recover on the chosen lane; returns what recovery can be judged by."""
    from repro.pstruct import PersistentHashMap
    from repro.sim.crash import SimulatedCrash

    system = make_system(Mode.GPM)
    first, second = _hashmap_batches()
    pmap = PersistentHashMap.create(system, "/pm/map", capacity=512)
    pmap.insert_batch(*first)
    injector = CrashInjector(system.machine)
    injector.arm(crash_after)
    with pytest.raises(SimulatedCrash):
        pmap.insert_batch(*second, crash_injector=injector)
    system.machine.drop_volatile_regions()
    events = []
    system.events.subscribe(lambda ts, ev: events.append(event_to_record(ts, ev)))
    lanes = []
    orig = system.gpu.launch

    def spy(*args, **kwargs):
        res = orig(*args, **kwargs)
        lanes.append(res.lane)
        return res

    system.gpu.launch = spy
    if forced_scalar:
        with scalar_lane():
            elapsed = PersistentHashMap.open(system, "/pm/map").recover()
    else:
        elapsed = PersistentHashMap.open(system, "/pm/map").recover()
    images = {r.name: (r.visible.copy(), r.persisted.copy())
              for r in system.machine.regions}
    return elapsed, events, images, lanes


def test_hashmap_undo_lane_parity():
    # The undo kernel's warp twin against the scalar body, at thread
    # frontiers of a crashed insert batch (each leaves a different set of
    # logged entries for recovery to roll back).
    from repro.pstruct import PersistentHashMap

    system = make_system(Mode.GPM)
    first, second = _hashmap_batches()
    pmap = PersistentHashMap.create(system, "/pm/map", capacity=512)
    pmap.insert_batch(*first)
    recorder = FrontierRecorder()
    system.events.subscribe(recorder.observe)
    pmap.insert_batch(*second, crash_injector=recorder)
    windows = [f for f in recorder.frontiers() if f.mechanism == "threads"]
    assert len(windows) > 8
    for crash_after in [f.value for f in prune_frontiers(windows, 8)]:
        t_s, ev_s, img_s, lanes_s = _hashmap_crash_recover(crash_after, True)
        t_w, ev_w, img_w, lanes_w = _hashmap_crash_recover(crash_after, False)
        assert lanes_s == ["scalar"] and lanes_w == ["warp"]
        assert t_s == t_w, crash_after
        assert ev_s == ev_w, crash_after
        assert img_s.keys() == img_w.keys()
        for name, (vis_s, per_s) in img_s.items():
            vis_w, per_w = img_w[name]
            assert np.array_equal(vis_s, vis_w), (crash_after, name)
            assert np.array_equal(per_s, per_w), (crash_after, name)


def test_forced_scalar_env(monkeypatch):
    # The module flag that scalar_lane() sets disables every registered
    # warp implementation, whoever set it.
    import repro.gpu.warp as warp

    monkeypatch.setattr(warp, "_scalar_only", True)
    assert resolve_warp_impl(partial_sums_kernel) is None


LITMUS_PARITY_POINTS = [
    # Every fence policy and data path the generated kernels can exercise.
    "strict:window:adr", "epoch:window:adr", "relaxed:nowindow:adr",
    "adaptive:window:adr", "eadr:window:adr",
]


def _run_litmus_collected(index, spec, forced_scalar):
    from repro.check.litmus import (
        REGION_BYTES,
        build_kernels,
        build_model,
        generate_test,
        parse_config_point,
    )
    from repro.core.persist import persist_window
    from repro.system import System

    test = generate_test(7, index)
    point = parse_config_point(spec)
    system = System(persistency=build_model(point))
    regions = [system.machine.alloc_pm(f"/pm/litmus{i}", REGION_BYTES)
               for i in range(test.n_regions)]
    kernel = build_kernels(test, regions)
    events = []
    system.events.subscribe(lambda ts, ev: events.append(event_to_record(ts, ev)))

    def launch():
        if point.window:
            with persist_window(system):
                return system.gpu.launch(kernel, 1, test.n_threads)
        return system.gpu.launch(kernel, 1, test.n_threads)

    if forced_scalar:
        with scalar_lane():
            result = launch()
    else:
        result = launch()
    images = [(r.visible.copy(), r.persisted.copy()) for r in regions]
    return result, events, images


@pytest.mark.parametrize("index", range(4))
@pytest.mark.parametrize("spec", LITMUS_PARITY_POINTS)
def test_litmus_kernels_lane_parity(index, spec):
    # Satellite of the litmus fuzzer: every generated kernel registers a
    # warp twin via @vectorized_for, and the two lanes must agree on the
    # full timestamped event stream and both memory images, byte for byte.
    rs, ev_s, img_s = _run_litmus_collected(index, spec, True)
    rw, ev_w, img_w = _run_litmus_collected(index, spec, False)
    assert rs.lane == "scalar" and rw.lane == "warp"
    assert rs.elapsed == rw.elapsed
    assert ev_s == ev_w
    for (vis_s, per_s), (vis_w, per_w) in zip(img_s, img_w):
        assert np.array_equal(vis_s, vis_w)
        assert np.array_equal(per_s, per_w)


@pytest.mark.parametrize("spec", LITMUS_PARITY_POINTS)
def test_litmus_crash_replays_match_either_lane(spec, monkeypatch):
    # Crash replays of the litmus fuzzer take the warp lane; the durable
    # image at every frontier execute_point selects must equal the scalar
    # lane's.  The campaign judges event frontiers from the image census
    # of the reference run and replays none of them, so this test is
    # where the census meets both lanes' replays.
    from repro.check.litmus import (
        DEFAULT_LITMUS_FRONTIERS,
        census_images,
        crash_images,
        generate_tests,
        parse_config_point,
        record_frontiers,
        select_frontiers,
    )
    from repro.gpu import device

    lanes = []
    resolve = device.resolve_warp_impl

    def spy(kernel):
        impl = resolve(kernel)
        lanes.append(impl is not None)
        return impl

    monkeypatch.setattr(device, "resolve_warp_impl", spy)
    point = parse_config_point(spec)
    warp_replays = census_checked = 0
    for test in generate_tests(42, 2):
        frontiers, _ = record_frontiers(test, point)
        for frontier in select_frontiers(frontiers, DEFAULT_LITMUS_FRONTIERS):
            lanes.clear()
            default = crash_images(test, point, frontier)
            # (a crash before the launch resolves its lane leaves no entry)
            assert set(lanes) <= {True}
            warp_replays += any(lanes)
            with scalar_lane():
                reference = crash_images(test, point, frontier)
            assert default is not None and reference is not None
            assert default.keys() == reference.keys()
            for r, image in default.items():
                assert np.array_equal(image, reference[r]), (
                    test.index, frontier.spec(), r)
            if frontier.mechanism == "event":
                census_checked += 1
                taken = census_images(frontier.state)
                assert taken.keys() == default.keys()
                for r, image in taken.items():
                    assert np.array_equal(image, default[r]), (
                        "warp", test.index, frontier.spec(), r)
                    assert np.array_equal(image, reference[r]), (
                        "scalar", test.index, frontier.spec(), r)
    assert warp_replays and census_checked


def test_litmus_sentinels_caught_with_warp_lane_replays():
    # Both sentinel mutants must still be caught now that execute_point
    # judges event frontiers from the image census (taken on the scalar
    # reference run) rather than from warp-lane replays; the census itself
    # is checked against both lanes above.
    from repro.check.litmus import execute_point, generate_tests
    from repro.sim.persistency import SENTINEL_MUTANTS

    tests = generate_tests(42, 2)
    for mutant in SENTINEL_MUTANTS:
        caught = [(test.index, spec) for test in tests
                  for spec in LITMUS_PARITY_POINTS
                  if not execute_point(test.payload(), spec,
                                       mutant=mutant)["ok"]]
        assert caught, f"sentinel {mutant} escaped"


def test_litmus_generated_kernels_register_warp_impl():
    from repro.check.litmus import REGION_BYTES, build_kernels, generate_tests
    from repro.system import System

    for test in generate_tests(7, 8):
        system = System()
        regions = [system.machine.alloc_pm(f"/pm/l{i}", REGION_BYTES)
                   for i in range(test.n_regions)]
        assert resolve_warp_impl(build_kernels(test, regions)) is not None


def test_check_frontiers_match_either_lane():
    # repro.check must explore the same frontier count whether or not warp
    # implementations are registered: recording runs under the recorder
    # (scalar lane), and event-frontier replays (warp lane) must judge
    # every state as the scalar lane does.
    from repro.check import explore

    report_default = explore("prefix_sum", Mode.GPM, max_frontiers=4)
    with scalar_lane():
        report_scalar = explore("prefix_sum", Mode.GPM, max_frontiers=4)
    assert report_default.frontiers_recorded == report_scalar.frontiers_recorded
    assert len(report_default.results) == len(report_scalar.results)
    for a, b in zip(report_default.results, report_scalar.results):
        assert a.status == b.status
