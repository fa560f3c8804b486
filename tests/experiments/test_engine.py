"""The parallel experiment engine: parity, dedup, ordering, prefetch."""

import dataclasses
import time

import pytest

from repro.experiments import runner
from repro.experiments.diskcache import result_to_record
from repro.experiments.runner import RunRequest, prefetch, run_workload
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
    return {req: runner._execute(req.workload, req.mode.value)
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


class TestPrefetch:
    def test_seeds_the_memo(self):
        runner.clear_cache()
        prefetch([RunRequest("CFD", Mode.GPM)])
        key = ("CFD", Mode.GPM, runner._current_config())
        assert key in runner._cache

    def test_accepts_generators(self):
        runner.clear_cache()
        prefetch(r for r in [RunRequest("CFD", Mode.GPM)])
        assert ("CFD", Mode.GPM, runner._current_config()) in runner._cache


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


def _sleep_then_echo(value, delay):
    time.sleep(delay)
    return value


def _no_fork(*_args, **_kwargs):
    raise AssertionError("fan_out forked a pool")


class TestFanOut:
    def test_results_in_args_order(self, monkeypatch):
        # The first task is the slowest, so completion order differs.
        monkeypatch.setattr(runner, "available_cpus", lambda: 2)
        args = [(i, 0.05 if i == 0 else 0.0) for i in range(5)]
        assert runner.fan_out(_sleep_then_echo, args, 2) == list(range(5))

    @pytest.mark.parametrize("jobs,args", [
        (1, [(1,), (2,), (3,)]),
        (4, [(7,)]),
    ])
    def test_inline_below_two_workers_or_tasks(self, monkeypatch, jobs, args):
        import multiprocessing

        monkeypatch.setattr(runner, "available_cpus", lambda: 4)
        monkeypatch.setattr(multiprocessing, "get_context", _no_fork)
        assert runner.fan_out(abs, args, jobs) == [a for (a,) in args]

    def test_inline_path_does_not_import_multiprocessing(self):
        import subprocess
        import sys

        code = ("import sys; from repro.experiments.runner import fan_out; "
                "assert fan_out(abs, [(-1,), (-2,)], 1) == [1, 2]; "
                "print('multiprocessing' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "False"

    def test_nested_fan_out_stays_inside_its_worker(self, tmp_path,
                                                    monkeypatch):
        import repro.experiments as experiments
        from repro.experiments.results import ExperimentTable

        def builder(name):
            def build():
                prefetch([RunRequest("HS", Mode.GPM),
                          RunRequest("CFD", Mode.GPM)], jobs=2)
                table = ExperimentTable(name, name, ["elapsed"])
                table.add(run_workload("HS", Mode.GPM).elapsed)
                return table
            return build

        monkeypatch.setattr(runner, "available_cpus", lambda: 2)
        for name in ("nested_a", "nested_b"):
            monkeypatch.setitem(experiments.ALL_EXPERIMENTS, name,
                                builder(name))
        runner.clear_cache()
        tables = experiments.run_all(directory=str(tmp_path), verbose=False,
                                     jobs=2, names=["nested_a", "nested_b"])
        elapsed = run_workload("HS", Mode.GPM).elapsed
        assert [t.rows for t in tables.values()] == [[[elapsed]]] * 2

    def test_workers_inherit_the_active_config(self, monkeypatch):
        from repro.sim import config as sim_config

        reqs = [RunRequest("HS", Mode.GPM), RunRequest("CFD", Mode.GPM)]
        default = {r: runner._execute(r.workload, r.mode.value)
                   for r in reqs}
        slow = dataclasses.replace(sim_config.DEFAULT_CONFIG,
                                   pcie_bw=sim_config.DEFAULT_CONFIG.pcie_bw / 4)
        monkeypatch.setattr(sim_config, "DEFAULT_CONFIG", slow)
        expected = {r: runner._execute(r.workload, r.mode.value)
                    for r in reqs}
        assert expected != default
        monkeypatch.setattr(runner, "available_cpus", lambda: 2)
        runner.clear_cache()
        prefetch(reqs, jobs=2)
        for req in reqs:
            key = (req.workload, req.mode, slow)
            assert result_to_record(runner._cache[key]) == \
                expected[req]["result"]


class TestSharedEngineFacilities:
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
        assert run_workload("CFD", Mode.GPM) is run_workload("CFD", Mode.GPM)
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
