"""The persistent result cache: round-trips, invalidation, corruption."""

import json
import os

import pytest

from repro.experiments import runner
import repro
from repro.experiments.diskcache import (
    ResultCache,
    result_from_record,
    result_to_record,
    source_digest,
    table_from_record,
    table_to_record,
)
from repro.experiments.results import ExperimentTable
from repro.experiments.runner import run_workload
from repro.host.gpufs import GpufsUnsupported
from repro.sim.config import DEFAULT_CONFIG
from repro.workloads import Mode


@pytest.fixture
def cache(tmp_path):
    c = ResultCache(str(tmp_path / "cache"))
    runner.set_disk_cache(c)
    yield c
    runner.set_disk_cache(None)
    runner.clear_cache()


def _payload():
    return runner._execute("HS", "gpm")


class TestSerialization:
    def test_result_round_trip_is_exact(self):
        record = _payload()["result"]
        assert result_to_record(result_from_record(record)) == record

    def test_table_round_trip_is_exact(self):
        table = ExperimentTable("t", "Title", ["a", "b"],
                               rows=[["x", 1.5], ["y", 2]], notes=["n"])
        record = table_to_record(table)
        assert table_to_record(table_from_record(record)) == record


class TestRunCache:
    def test_warm_hit_replays_identical_result(self, cache):
        first = result_to_record(run_workload("HS", Mode.GPM))
        assert os.path.exists(cache.run_path("HS", Mode.GPM, DEFAULT_CONFIG))
        runner.clear_cache()  # force the disk path
        second = result_to_record(run_workload("HS", Mode.GPM))
        assert first == second

    def test_config_change_invalidates(self, cache):
        payload = _payload()
        cache.store_run("HS", Mode.GPM, DEFAULT_CONFIG, payload)
        other = DEFAULT_CONFIG.with_overrides(pcie_bw=1e9)
        assert cache.load_run("HS", Mode.GPM, other) is None
        assert cache.load_run("HS", Mode.GPM, DEFAULT_CONFIG) == payload

    def test_version_change_invalidates(self, cache):
        payload = _payload()
        cache.store_run("HS", Mode.GPM, DEFAULT_CONFIG, payload)
        newer = ResultCache(cache.directory, version="99.0")
        assert newer.load_run("HS", Mode.GPM, DEFAULT_CONFIG) is None

    def test_corrupt_entry_is_a_miss_and_removed(self, cache):
        payload = _payload()
        path = cache.store_run("HS", Mode.GPM, DEFAULT_CONFIG, payload)
        with open(path, "w") as fh:
            fh.write('{"version": 1, "payl')  # truncated write
        assert cache.load_run("HS", Mode.GPM, DEFAULT_CONFIG) is None
        assert not os.path.exists(path)
        # a rerun repopulates the slot
        run_workload("HS", Mode.GPM)
        assert os.path.exists(path)

    def test_wrong_shape_entry_is_a_miss(self, cache):
        path = cache.run_path("HS", Mode.GPM, DEFAULT_CONFIG)
        os.makedirs(cache.directory, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"payload": {"nonsense": True}}, fh)
        assert cache.load_run("HS", Mode.GPM, DEFAULT_CONFIG) is None

    def test_unsupported_marker_raises_fresh_exceptions(self, cache):
        with pytest.raises(GpufsUnsupported):
            run_workload("gpKVS", Mode.GPUFS)
        path = cache.run_path("gpKVS", Mode.GPUFS, DEFAULT_CONFIG)
        with open(path) as fh:
            entry = json.load(fh)
        assert isinstance(entry["payload"]["unsupported"], str)
        runner.clear_cache()  # serve the marker from disk
        with pytest.raises(GpufsUnsupported) as first:
            run_workload("gpKVS", Mode.GPUFS)
        with pytest.raises(GpufsUnsupported) as second:
            run_workload("gpKVS", Mode.GPUFS)
        assert first.value is not second.value


class TestTableCache:
    def test_store_and_load(self, cache):
        table = ExperimentTable("t", "Title", ["a"], rows=[["x"]])
        cache.store_table("t", DEFAULT_CONFIG, table)
        loaded = cache.load_table("t", DEFAULT_CONFIG)
        assert table_to_record(loaded) == table_to_record(table)

    def test_config_keyed(self, cache):
        table = ExperimentTable("t", "Title", ["a"], rows=[["x"]])
        cache.store_table("t", DEFAULT_CONFIG, table)
        other = DEFAULT_CONFIG.with_overrides(pcie_bw=1e9)
        assert cache.load_table("t", other) is None


class TestSourceDigest:
    @staticmethod
    def _tree(root):
        (root / "pkg").mkdir(parents=True)
        (root / "top.py").write_text("A = 1\n")
        (root / "pkg" / "mod.py").write_text("def f():\n    return 2\n")
        return str(root)

    def test_keys_on_python_source_only(self, tmp_path):
        base = source_digest(self._tree(tmp_path / "base"))
        edited = self._tree(tmp_path / "edited")
        (tmp_path / "edited" / "pkg" / "mod.py").write_text(
            "def f():\n    return 3\n")
        extra = self._tree(tmp_path / "extra")
        (tmp_path / "extra" / "pkg" / "notes.txt").write_text("not code")
        assert source_digest(edited) != base
        assert source_digest(extra) == base

    def test_cache_defaults_to_the_package_digest(self, tmp_path):
        package = os.path.dirname(os.path.abspath(repro.__file__))
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.version == source_digest(package)
