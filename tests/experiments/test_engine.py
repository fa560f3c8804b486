"""The parallel experiment engine: parity, dedup, ordering, prefetch."""

import pytest

from repro.experiments import runner
from repro.experiments.diskcache import result_to_record
from repro.experiments.runner import (
    RunRequest,
    prefetch,
    run_workload,
    run_workload_profiled,
    run_workloads_parallel,
)
from repro.host.gpufs import GpufsUnsupported
from repro.workloads import Mode

#: Cheap (workload, mode) cells exercising distinct code paths, including
#: one the mode cannot execute at all.
FAST_REQUESTS = [
    RunRequest("HS", Mode.GPM),
    RunRequest("CFD", Mode.GPM),
    RunRequest("BLK", Mode.CAP_MM),
    RunRequest("gpDB (I)", Mode.GPM),
    RunRequest("gpKVS", Mode.GPUFS),
]


def _sequential_payloads(requests):
    return {req: runner._execute(req.workload, req.mode.value, req.profiled)
            for req in requests}


class TestParallelSequentialParity:
    def test_parallel_results_bit_identical_to_sequential(self):
        expected = _sequential_payloads(FAST_REQUESTS)
        runner.clear_cache()
        prefetch(FAST_REQUESTS, jobs=2)
        for req, payload in expected.items():
            if "unsupported" in payload:
                with pytest.raises(GpufsUnsupported):
                    run_workload(req.workload, req.mode)
                continue
            got = result_to_record(run_workload(req.workload, req.mode))
            assert got == payload["result"]

    def test_profiled_parity(self):
        req = RunRequest("HS", Mode.GPM, profiled=True)
        expected = runner._execute(req.workload, req.mode.value, True)
        runner.clear_cache()
        prefetch([req], jobs=2)  # single pending -> inline, still via payloads
        result, profile = run_workload_profiled("HS", Mode.GPM)
        assert result_to_record(result) == expected["result"]


class TestPrefetch:
    def test_seeds_the_memo(self):
        runner.clear_cache()
        prefetch([RunRequest("CFD", Mode.GPM)])
        key = ("CFD", Mode.GPM, runner._current_config())
        assert key in runner._cache

    def test_profiled_subsumes_plain(self):
        runner.clear_cache()
        prefetch([RunRequest("HS", Mode.GPM),
                  RunRequest("HS", Mode.GPM, profiled=True)])
        key = ("HS", Mode.GPM, runner._current_config())
        assert key in runner._cache and key in runner._profile_cache

    def test_accepts_tuples_and_generators(self):
        runner.clear_cache()
        prefetch((("CFD", "gpm"),))
        prefetch(r for r in [RunRequest("CFD", Mode.GPM)])
        assert ("CFD", Mode.GPM, runner._current_config()) in runner._cache


class TestRunWorkloadsParallel:
    def test_order_preserved_with_none_for_unsupported(self):
        runner.clear_cache()
        out = run_workloads_parallel(FAST_REQUESTS, jobs=2)
        assert len(out) == len(FAST_REQUESTS)
        for req, res in zip(FAST_REQUESTS, out):
            if req == RunRequest("gpKVS", Mode.GPUFS):
                assert res is None
            else:
                assert res.workload == req.workload
                assert res.mode == req.mode

    def test_duplicate_requests_get_identical_objects(self):
        runner.clear_cache()
        reqs = [RunRequest("HS", Mode.GPM)] * 2
        a, b = run_workloads_parallel(reqs)
        assert a is b


class TestRunAllParity:
    #: Cheap artefact subset: three bespoke + one engine-routed.
    NAMES = ["ablation_ddio", "ablation_coalescing", "figure3",
             "ablation_binomial"]

    def test_parallel_reports_byte_identical_to_sequential(self, tmp_path):
        import repro.experiments as experiments

        runner.clear_cache()
        experiments.run_all(directory=str(tmp_path / "seq"), verbose=False,
                            jobs=1, names=self.NAMES)
        runner.clear_cache()
        experiments.run_all(directory=str(tmp_path / "par"), verbose=False,
                            jobs=3, names=self.NAMES)
        for name in self.NAMES:
            seq = (tmp_path / "seq" / f"out_{name}.txt").read_bytes()
            par = (tmp_path / "par" / f"out_{name}.txt").read_bytes()
            assert seq == par, name

    def test_unknown_name_rejected(self):
        import repro.experiments as experiments

        with pytest.raises(KeyError):
            experiments.run_all(verbose=False, names=["figure99"])

    def test_warm_table_cache_skips_rebuilding(self, tmp_path, monkeypatch):
        import repro.experiments as experiments
        from repro.experiments.diskcache import ResultCache

        runner.set_disk_cache(ResultCache(str(tmp_path / "cache")))
        try:
            first = experiments.run_all(directory=str(tmp_path / "r1"),
                                        verbose=False, names=["figure3"])

            def boom():
                raise AssertionError("table cache miss: artefact rebuilt")

            monkeypatch.setitem(experiments.ALL_EXPERIMENTS, "figure3", boom)
            runner.clear_cache()
            second = experiments.run_all(directory=str(tmp_path / "r2"),
                                         verbose=False, names=["figure3"])
            assert first["figure3"].rows == second["figure3"].rows
        finally:
            runner.set_disk_cache(None)


class TestSharedEngineFacilities:
    def test_shared_pool_is_reused_and_executes(self):
        pool = runner.shared_pool(2)
        assert runner.shared_pool(2) is pool
        payloads = pool.starmap(
            runner._execute,
            [("HS", "gpm", False, runner._current_config())], chunksize=1)
        assert "result" in payloads[0]

    def test_snapshot_and_install_memo_round_trip(self):
        runner.clear_cache()
        reqs = [RunRequest("HS", Mode.GPM), RunRequest("gpKVS", Mode.GPUFS)]
        prefetch(reqs, jobs=1)
        memo = runner.snapshot_memo(reqs)
        assert len(memo) == 2
        before = result_to_record(run_workload("HS", Mode.GPM))
        runner.clear_cache()
        runner.install_memo(memo)
        assert result_to_record(run_workload("HS", Mode.GPM)) == before
        with pytest.raises(GpufsUnsupported):
            run_workload("gpKVS", Mode.GPUFS)

    def test_fresh_runs_execute_memo_hits_do_not(self, monkeypatch):
        executed = []
        execute = runner._execute

        def counting(workload, *rest):
            executed.append(workload)
            return execute(workload, *rest)

        monkeypatch.setattr(runner, "_execute", counting)
        runner.clear_cache()
        prefetch([RunRequest("CFD", Mode.GPM)], jobs=1)
        assert executed == ["CFD"]
        prefetch([RunRequest("CFD", Mode.GPM)], jobs=1)  # memo hit
        assert executed == ["CFD"]

    def test_effective_jobs_clamps_to_available_cpus(self):
        import os

        assert runner.effective_jobs(1) == 1
        assert 1 <= runner.effective_jobs(64) <= (os.cpu_count() or 1)


class TestUnsupportedExceptionFreshness:
    def test_each_call_raises_a_distinct_exception(self):
        runner.clear_cache()
        with pytest.raises(GpufsUnsupported) as first:
            run_workload("gpKVS", Mode.GPUFS)
        with pytest.raises(GpufsUnsupported) as second:
            run_workload("gpKVS", Mode.GPUFS)
        assert first.value is not second.value
        assert first.value.reason == second.value.reason
