"""End-to-end semantics of the pluggable persistency models.

Three layers of evidence that the model axis is real, not cosmetic:

1. every GPMbench workload runs to completion (and verifies) under the
   epoch, relaxed and adaptive models;
2. the SIMT engine's fence accounting and event stream change exactly as
   each model's ordering rules dictate (epoch coalescing, relaxed
   kernel-end drains, epoch-boundary events at barriers);
3. ``repro.check`` explores the models' crash-state spaces: the oracle
   targets' frontier taxonomies under ``Epoch`` differ from strict only in
   the drain-coalescing kinds plus the new ``epoch-boundary`` kind, and the
   deliberate fence-ordering bug in ``broken-demo`` is caught under strict
   but *masked* under epoch - intra-epoch coalescing removes precisely the
   ordering the bug depends on.
"""

from collections import Counter

import pytest

from repro.check.explorer import CrashExplorer, explore
from repro.check.oracles import CHECK_TARGETS
from repro.sim import event_to_record
from repro.workloads.base import Mode, make_system

#: frontier kinds whose populations legitimately move when drain rounds
#: coalesce into epochs
_DRAIN_KINDS = {"warp-drain", "optane-epoch", "epoch-boundary"}


# ---------------------------------------------------------------------------
# 1. every workload end-to-end under every new model
# ---------------------------------------------------------------------------


def _small_suite():
    # Small-config instances keep the full matrix fast while still walking
    # every workload's real code path.
    from repro.workloads.bfs import BfsConfig, GraphBfs
    from repro.workloads.binomial import BinomialConfig, BinomialOptions
    from repro.workloads.kvs import GpKvs, KvsConfig
    from repro.workloads.prefix_sum import PrefixSum, PrefixSumConfig

    return [
        PrefixSum(PrefixSumConfig(n=1024, block_dim=128)),
        GpKvs(KvsConfig(n_sets=128, batch_size=64, set_batches=2)),
        BinomialOptions(BinomialConfig(n_options=8, steps=16, block_dim=32)),
        GraphBfs(BfsConfig(rows=16, cols=32)),
    ]


@pytest.mark.parametrize("mode", [Mode.GPM_EPOCH, Mode.GPM_RELAXED,
                                  Mode.GPM_ADAPTIVE])
def test_workloads_complete_and_verify(mode):
    for workload in _small_suite():
        result = workload.run(mode)
        assert result.elapsed > 0
        if hasattr(workload, "verify"):
            assert workload.verify(), (
                f"{workload.name} wrong under {mode.value}")


def test_full_suite_runs_under_every_model():
    from repro.workloads import gpmbench_suite

    for mode in (Mode.GPM_EPOCH, Mode.GPM_ADAPTIVE):
        for workload in gpmbench_suite():
            assert workload.run(mode).elapsed > 0


# ---------------------------------------------------------------------------
# 2. engine-level ordering semantics
# ---------------------------------------------------------------------------


def _fence_twice_kernel(ctx, arr):
    i = ctx.global_id
    arr.write(ctx, i, i + 1)
    ctx.persist()
    arr.write(ctx, i, i + 2)
    ctx.persist()


def _run_fence_twice(mode):
    from repro.core.persist import persist_window
    from repro.gpu.memory import DeviceArray
    import numpy as np

    system = make_system(mode)
    region = system.machine.alloc_pm("/pm/fences", 64 * 8)
    arr = DeviceArray(region, np.int64, 0, 64)
    events = []
    system.events.subscribe(lambda ts, ev: events.append(event_to_record(ts, ev)))
    with persist_window(system):
        res = system.gpu.launch(_fence_twice_kernel, 1, 64, (arr,))
    return res, events, region


def test_epoch_coalesces_fence_rounds():
    # Two fences per thread: strict pays two ordered drain rounds per warp,
    # epoch coalesces them into one, relaxed drains once at kernel end.
    strict, _, _ = _run_fence_twice(Mode.GPM)
    epoch, epoch_events, _ = _run_fence_twice(Mode.GPM_EPOCH)
    relaxed, relaxed_events, _ = _run_fence_twice(Mode.GPM_RELAXED)
    assert strict.accounting.max_warp_rounds == 2
    assert epoch.accounting.max_warp_rounds == 1
    assert relaxed.accounting.max_warp_rounds == 1
    # All models execute the same fences; they just order them differently.
    assert (strict.accounting.fences == epoch.accounting.fences
            == relaxed.accounting.fences == 128)
    # Coalescing is visible on the bus: epoch merges the two per-warp
    # rounds into one drain, and closes exactly one epoch at kernel end.
    strict_drains = [e for _, es, _ in [_run_fence_twice(Mode.GPM)]
                     for e in es if e["event"] == "warp_drain"]
    epoch_drains = [e for e in epoch_events if e["event"] == "warp_drain"]
    assert len(epoch_drains) == len(strict_drains) // 2
    assert [e["epoch"] for e in epoch_events
            if e["event"] == "epoch_boundary"] == [1]
    # Relaxed: every drain is the implicit kernel-end round, no boundaries.
    relaxed_drains = [e for e in relaxed_events if e["event"] == "warp_drain"]
    assert relaxed_drains and all(e["round_no"] == -1 for e in relaxed_drains)
    assert not any(e["event"] == "epoch_boundary" for e in relaxed_events)


def test_epoch_boundaries_land_at_barriers():
    # PS's generator kernels fence on both sides of __syncthreads(): every
    # barrier that saw fences closes one epoch, in order.
    from repro.workloads.prefix_sum import PrefixSum, PrefixSumConfig

    system = make_system(Mode.GPM_EPOCH)
    events = []
    system.events.subscribe(lambda ts, ev: events.append(event_to_record(ts, ev)))
    PrefixSum(PrefixSumConfig(n=512, block_dim=128)).run(
        Mode.GPM_EPOCH, system=system)
    boundaries = [e["epoch"] for e in events if e["event"] == "epoch_boundary"]
    # 4 blocks x 2 epochs per launch, ordinals restarting per launch.
    assert boundaries == list(range(1, 9)) + list(range(1, 9))


def test_strict_event_stream_has_no_epoch_boundaries():
    from repro.workloads.prefix_sum import PrefixSum, PrefixSumConfig

    system = make_system(Mode.GPM)
    events = []
    system.events.subscribe(lambda ts, ev: events.append(event_to_record(ts, ev)))
    PrefixSum(PrefixSumConfig(n=512, block_dim=128)).run(Mode.GPM, system=system)
    assert not any(e["event"] == "epoch_boundary" for e in events)


# ---------------------------------------------------------------------------
# 3. crash-state exploration per model
# ---------------------------------------------------------------------------


def _event_kind_counts(target, mode):
    return Counter(f.kind
                   for f in CrashExplorer(target, mode).record()
                   if f.mechanism == "event")


@pytest.mark.parametrize("target", sorted(CHECK_TARGETS))
def test_epoch_frontiers_change_only_at_drain_coalescing(target):
    # Under Epoch, every oracle target's frontier taxonomy differs from
    # strict only where epoch semantics say it can: non-drain kinds are
    # untouched, drain kinds coalesce (never multiply), and the new
    # epoch-boundary kind appears exactly where kernels fence.
    strict = _event_kind_counts(target, Mode.GPM)
    epoch = _event_kind_counts(target, Mode.GPM_EPOCH)
    assert ({k: v for k, v in strict.items() if k not in _DRAIN_KINDS}
            == {k: v for k, v in epoch.items() if k not in _DRAIN_KINDS})
    for kind in ("warp-drain", "optane-epoch"):
        assert epoch.get(kind, 0) <= strict.get(kind, 0)
    assert "epoch-boundary" not in strict
    fenced = strict.get("warp-drain", 0) > 0
    assert (epoch.get("epoch-boundary", 0) > 0) == fenced


@pytest.mark.parametrize("target,mode", [
    ("prefix_sum", Mode.GPM_EPOCH),
    ("prefix_sum", Mode.GPM_ADAPTIVE),
    ("kvs", Mode.GPM_EPOCH),
    ("kvs", Mode.GPM_ADAPTIVE),
])
def test_check_passes_under_new_models(target, mode):
    report = explore(target, mode, max_frontiers=16)
    assert report.ok, report.describe()
    assert report.frontiers_recorded > 0


def test_broken_demo_bug_is_model_specific():
    # The deliberate sentinel-before-payload fence bug lives in the gap
    # between two strict drain rounds.  Epoch coalescing merges the rounds,
    # so the gap - and the bug - ceases to exist: the models genuinely
    # define different post-crash state sets.
    strict = explore("broken-demo", Mode.GPM, max_frontiers=0)
    assert any(r.status == "violation" for r in strict.results)
    epoch = explore("broken-demo", Mode.GPM_EPOCH, max_frontiers=0)
    assert all(r.status == "ok" for r in epoch.results)
