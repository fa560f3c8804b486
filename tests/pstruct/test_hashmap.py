"""PersistentHashMap: durability, atomicity, recovery."""

import numpy as np
import pytest

from repro.core.errors import GpmError
from repro.pstruct import PersistentHashMap
from repro.sim import CrashInjector, SimulatedCrash
from repro.sim.events import RegionAlloc


@pytest.fixture
def pmap(system):
    return PersistentHashMap.create(system, "/pm/map", capacity=2048)


class TestBasics:
    def test_insert_and_get(self, system, pmap):
        pmap.insert_batch([10, 20, 30], [100, 200, 300])
        assert pmap.get(20) == 200
        assert pmap.get(99) is None
        assert len(pmap) == 3

    def test_inserts_are_durable(self, system, pmap):
        pmap.insert_batch([5], [55])
        system.crash()
        assert pmap.get(5, durable=True) == 55

    def test_overwrite_same_key(self, system, pmap):
        pmap.insert_batch([7], [1])
        pmap.insert_batch([7], [2])
        assert pmap.get(7) == 2
        assert len(pmap) == 1

    def test_items(self, system, pmap):
        pmap.insert_batch([1, 2], [10, 20])
        assert dict(pmap.items()) == {1: 10, 2: 20}

    def test_open_after_crash(self, system, pmap):
        pmap.insert_batch([3], [33])
        system.crash()
        reopened = PersistentHashMap.open(system, "/pm/map")
        reopened.recover()
        assert reopened.get(3) == 33

    def test_batch_staging_region_name_is_deterministic(self, system, pmap):
        # Named from the map's path, never from id(keys): the event stream
        # must not differ between two processes running the same batches.
        names = []
        system.events.subscribe(
            lambda ts, ev: names.append(ev.region)
            if type(ev) is RegionAlloc else None)
        first = np.array([1, 2], dtype=np.uint64)
        second = np.array([3, 4], dtype=np.uint64)
        pmap.insert_batch(first, [10, 20])
        pmap.insert_batch(second, [30, 40])
        assert names == ["/pm/map.batch", "/pm/map.batch"]

    def test_capacity_rounds_to_ways(self, system):
        m = PersistentHashMap.create(system, "/pm/m2", capacity=100)
        assert m.capacity % 8 == 0
        assert m.capacity >= 100


class TestValidation:
    def test_zero_key_rejected(self, pmap):
        with pytest.raises(GpmError):
            pmap.insert_batch([0], [1])

    def test_duplicate_keys_rejected(self, pmap):
        with pytest.raises(GpmError):
            pmap.insert_batch([4, 4], [1, 2])

    def test_mismatched_lengths_rejected(self, pmap):
        with pytest.raises(GpmError):
            pmap.insert_batch([1, 2], [1])

    def test_oversized_batch_rejected(self, pmap):
        with pytest.raises(GpmError):
            pmap.insert_batch(np.arange(1, 10_000, dtype=np.uint64),
                              np.arange(1, 10_000, dtype=np.uint64))

    def test_open_wrong_file(self, system):
        system.fs.create("/pm/junk", 4096)
        with pytest.raises(GpmError):
            PersistentHashMap.open(system, "/pm/junk")


class TestCrashAtomicity:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_interrupted_batch_fully_undone(self, system, pmap, seed):
        pmap.insert_batch([100, 200], [1, 2])  # committed baseline
        inj = CrashInjector(system.machine, np.random.default_rng(seed))
        inj.arm_random(96)
        keys = np.arange(1000, 1096, dtype=np.uint64)
        with pytest.raises(SimulatedCrash):
            pmap.insert_batch(keys, keys * 2, crash_injector=inj)
        recovered = PersistentHashMap.open(system, "/pm/map")
        recovered.recover()
        assert recovered.get(100) == 1
        assert recovered.get(200) == 2
        for k in keys.tolist():
            assert recovered.get(k) is None, f"partial insert {k} leaked"

    def test_recover_without_crash_is_noop(self, system, pmap):
        pmap.insert_batch([9], [90])
        before = dict(pmap.items())
        pmap.recover()
        assert dict(pmap.items()) == before
