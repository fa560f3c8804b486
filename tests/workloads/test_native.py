"""Native-persistence workloads: BFS, SRAD, PS."""

import numpy as np
import pytest

from repro.sim import CrashInjector, SimulatedCrash
from repro.workloads import (
    BfsConfig,
    GraphBfs,
    Mode,
    PrefixSum,
    PrefixSumConfig,
    Srad,
    SradConfig,
    make_road_graph,
    make_system,
    reference_bfs,
)
from repro.workloads.bfs import INF


def small_bfs(**overrides) -> GraphBfs:
    cfg = dict(rows=16, cols=24, shortcut_fraction=0.01)
    cfg.update(overrides)
    return GraphBfs(BfsConfig(**cfg))


class TestRoadGraph:
    def test_csr_well_formed(self):
        row_ptr, col_idx = make_road_graph(8, 8, shortcut_fraction=0.05)
        assert row_ptr[0] == 0
        assert row_ptr[-1] == col_idx.size
        assert (np.diff(row_ptr) >= 0).all()
        assert col_idx.min() >= 0
        assert col_idx.max() < 64

    def test_symmetric(self):
        row_ptr, col_idx = make_road_graph(6, 6, shortcut_fraction=0.1)
        edges = set()
        for u in range(36):
            for v in col_idx[row_ptr[u] : row_ptr[u + 1]]:
                edges.add((u, int(v)))
        assert all((v, u) in edges for (u, v) in edges)

    def test_grid_connected(self):
        row_ptr, col_idx = make_road_graph(10, 10, shortcut_fraction=0.0)
        cost = reference_bfs(row_ptr, col_idx, 0)
        assert (cost != INF).all()

    def test_agrees_with_networkx(self):
        import networkx as nx

        row_ptr, col_idx = make_road_graph(8, 12, shortcut_fraction=0.05)
        g = nx.Graph()
        g.add_nodes_from(range(96))
        for u in range(96):
            for v in col_idx[row_ptr[u] : row_ptr[u + 1]]:
                g.add_edge(u, int(v))
        lengths = nx.single_source_shortest_path_length(g, 0)
        ref = reference_bfs(row_ptr, col_idx, 0)
        for node, d in lengths.items():
            assert ref[node] == d


class TestBfs:
    @pytest.mark.parametrize("engine", ["bulk", "kernel"])
    def test_costs_correct(self, engine):
        w = small_bfs(engine=engine)
        w.run(Mode.GPM)
        assert w.verify()

    def test_bulk_and_kernel_agree(self):
        wb = small_bfs(engine="bulk")
        wb.run(Mode.GPM)
        costs_b = wb._state[2].visible_view(np.uint32, 128, wb.n_nodes).copy()
        wk = small_bfs(engine="kernel")
        wk.run(Mode.GPM)
        costs_k = wk._state[2].visible_view(np.uint32, 128, wk.n_nodes).copy()
        assert np.array_equal(costs_b, costs_k)

    def test_gpm_state_durable(self):
        w = small_bfs()
        w.run(Mode.GPM)
        buf = w._state[2]
        system = w._state[0]
        system.crash()
        assert w.verify()  # visible==persisted after crash; costs intact

    def test_sequence_is_valid_bfs_order(self):
        w = small_bfs()
        w.run(Mode.GPM)
        buf = w._state[2]
        n = w.n_nodes
        cost = buf.visible_view(np.uint32, 128, n)
        seq = buf.visible_view(np.uint32, 128 + 4 * n, n)
        visited = int(buf.visible_view(np.uint32, 0, 2)[1])
        assert visited == n
        levels = cost[seq[:visited]]
        assert (np.diff(levels.astype(np.int64)) >= 0).all()

    def test_resume_after_mid_run_crash(self):
        w = small_bfs(engine="kernel")
        system = make_system(Mode.GPM)
        inj = CrashInjector(system.machine, np.random.default_rng(5))
        inj.arm(150)
        try:
            w.run(Mode.GPM, system=system, crash_injector=inj)
            crashed = False
        except SimulatedCrash:
            crashed = True
        assert crashed
        # resume on the recovered (persisted) state
        from repro.workloads.base import ModeDriver, PersistentBuffer

        system.machine.drop_volatile_regions()
        w2 = small_bfs(engine="kernel")
        driver = ModeDriver(system, Mode.GPM)
        buf = PersistentBuffer.reopen(driver, "/pm/bfs.state")
        w2.run(Mode.GPM, system=system, resume_buffer=buf)
        assert w2.verify()


class TestSrad:
    def test_output_matches_host_filter_and_smooths(self):
        w = Srad(SradConfig(n=48, iterations=3))
        w.run(Mode.GPM)
        assert w.verify()

    def test_durable_under_gpm(self):
        w = Srad(SradConfig(n=48, iterations=3))
        w.run(Mode.GPM)
        _, _, buf = w._state
        assert buf.gpm.region.unpersisted_bytes() == 0

    def test_iteration_counter_resumable(self):
        w = Srad(SradConfig(n=48, iterations=3))
        w.run(Mode.GPM)
        _, _, buf = w._state
        assert int(buf.durable_view(np.uint32, 0, 1)[0]) == 3


class TestPrefixSum:
    def _small(self):
        return PrefixSum(PrefixSumConfig(n=1024, block_dim=128, arrays=2))

    def test_correct(self):
        w = self._small()
        w.run(Mode.GPM)
        assert w.verify()

    @pytest.mark.parametrize("mode", [Mode.CAP_MM, Mode.GPM_NDP])
    def test_correct_all_modes(self, mode):
        w = self._small()
        w.run(mode)
        assert w.verify()

    def test_gpm_durable(self):
        w = self._small()
        w.run(Mode.GPM)
        _, _, bufs = w._state
        for buf in bufs:
            out = buf.durable_view(np.int64, 128 + 8 * 1024, 1024)
            assert (out > 0).all()

    def test_block_dim_constraint(self):
        with pytest.raises(ValueError):
            PrefixSum(PrefixSumConfig(n=1000, block_dim=128))

    def test_sentinel_check_names_torn_blocks_in_order(self):
        # A torn block is reported only when its last (sentinel) slot is
        # durable; arrays in order, psum before out, blocks ascending.  A
        # fresh instance judges: the invariants read only config and PM.
        cfg = PrefixSumConfig(n=1024, block_dim=128, arrays=2)
        system = make_system(Mode.GPM)
        PrefixSum(cfg).run(Mode.GPM, system=system)
        for path, off, block, slot, value in (
                ("/pm/ps1.state", 128, 2, 5, -1),          # ps1.psum block 2
                ("/pm/ps0.state", 128 + 8 * 1024, 7, 0, -1),  # ps0.out block 7
                ("/pm/ps0.state", 128, 4, 3, -1),           # torn, but its
                ("/pm/ps0.state", 128, 4, 127, 0),          # sentinel empty
                ("/pm/ps0.state", 128, 1, 3, -1)):          # ps0.psum block 1
            region = system.fs.open(path).region
            region.persisted_view(np.int64, off, 1024)[block * 128 + slot] = value
        sentinel = PrefixSum(cfg).declare_invariants(system)[0]
        assert sentinel[2]() == (False, "sentinel present but block torn: "
                                 "ps0.psum block 1, ps0.out block 7, "
                                 "ps1.psum block 2")

    def test_crash_then_rerun_completes(self):
        """Fig. 8's embedded recovery: re-running skips finished blocks."""
        w = self._small()
        system = make_system(Mode.GPM)
        inj = CrashInjector(system.machine)
        inj.arm(700)
        with pytest.raises(SimulatedCrash):
            w.run(Mode.GPM, system=system, crash_injector=inj)
        # recovery = run the same kernels again over the persisted arrays
        from repro.workloads.base import ModeDriver, PersistentBuffer

        system.machine.drop_volatile_regions()
        driver = ModeDriver(system, Mode.GPM)
        w2 = self._small()
        rng = np.random.default_rng(w2.config.seed)
        inputs = [rng.integers(1, 100, size=1024, dtype=np.int64) for _ in range(2)]
        for a in range(2):
            buf = PersistentBuffer.reopen(driver, f"/pm/ps{a}.state")
            w2._scan_one(driver, buf, inputs[a], None)
            got = buf.visible_view(np.int64, 128 + 8 * 1024, 1024)
            assert np.array_equal(got, np.cumsum(inputs[a]))
