"""BFS with native persistence (Section 4.3): resumable graph traversal.

The paper's BFS (from Chai [25]) runs level-synchronous breadth-first
search over a PM-resident USA-road-network graph, persisting "the node
search sequence and cost of traversal for each node" every iteration; after
a crash the application *resumes* from the persisted partial traversal
instead of restarting.  The read-only graph itself is staged into the GPU's
HBM once (Section 4.3: read-only structures go to device memory).

PM layout::

    [progress: level u32, visited u32, pad to 128]
    [cost: u32 x nodes]           (0xFFFFFFFF = unvisited)
    [sequence: u32 x nodes]       (append-only visit order)

Persistence ordering per level: costs -> sequence -> progress record, so a
crash can at worst lose the in-flight level, which resume recomputes
idempotently from the durable costs.

Two execution engines share this logic:

* ``engine="kernel"``: a real per-thread GPU kernel (used at small scale
  and for crash-injection tests);
* ``engine="bulk"``: numpy frontier expansion + the device's vectorised
  scatter-store path, allowing road-network-like scales (hundreds of
  thousands of nodes, hundreds of levels) where CAP's per-iteration DMA +
  whole-cost-array persistence overheads dominate - the paper's 85x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..gpu.memory import DeviceArray
from ..gpu.warp import vectorized_for
from ..sim import bulk
from .base import Category, Mode, ModeDriver, RunResult, make_system, measure
from .hostmemo import HostTrajectory

INF = np.uint32(0xFFFFFFFF)
_HEADER_BYTES = 128


def make_road_graph(rows: int, cols: int, seed: int = 17,
                    shortcut_fraction: float = 0.005) -> tuple[np.ndarray, np.ndarray]:
    """A synthetic road-network-like graph in CSR form.

    Grid connectivity (low degree, huge diameter - the signature of road
    networks) plus a sprinkle of random shortcuts.  Returns (row_ptr,
    col_idx) with symmetric edges.  Construction is deterministic per
    argument tuple, so repeated builds (one graph is traversed under
    several persistence modes) come from a small cache; the returned
    arrays are read-only.
    """
    return _road_graph_cached(rows, cols, seed, shortcut_fraction)


@lru_cache(maxsize=8)
def _road_graph_cached(rows: int, cols: int, seed: int,
                       shortcut_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    n = rows * cols
    rng = np.random.default_rng(seed)
    edges = []
    idx = np.arange(n).reshape(rows, cols)
    # 4-neighbour grid roads
    edges.append(np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1))
    edges.append(np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1))
    # shortcuts (highways)
    n_short = int(n * shortcut_fraction)
    if n_short:
        pairs = rng.integers(0, n, size=(n_short, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        edges.append(pairs)
    e = np.concatenate(edges)
    e = np.concatenate([e, e[:, ::-1]])  # symmetric
    order = np.lexsort((e[:, 1], e[:, 0]))
    e = e[order]
    keep = np.ones(e.shape[0], dtype=bool)
    keep[1:] = (e[1:] != e[:-1]).any(axis=1)
    e = e[keep]
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(row_ptr, e[:, 0] + 1, 1)
    row_ptr = np.cumsum(row_ptr)
    col_idx = e[:, 1].astype(np.int32)
    row_ptr.setflags(write=False)
    col_idx.setflags(write=False)
    return row_ptr, col_idx


def reference_bfs(row_ptr: np.ndarray, col_idx: np.ndarray, source: int) -> np.ndarray:
    """Host-side reference costs for verification."""
    n = row_ptr.size - 1
    cost = np.full(n, INF, dtype=np.uint32)
    cost[source] = 0
    frontier = np.array([source])
    level = 0
    while frontier.size:
        nbrs = np.concatenate([
            col_idx[row_ptr[u] : row_ptr[u + 1]] for u in frontier.tolist()
        ]) if frontier.size else np.array([], dtype=np.int32)
        nbrs = np.unique(nbrs)
        new = nbrs[cost[nbrs] == INF]
        cost[new] = level + 1
        frontier = new
        level += 1
    return cost


def bfs_kernel(ctx, row_ptr, col_idx, frontier, n_frontier, cost, seq, counter,
               level, persist_on):
    """Relax one frontier node per thread (per-thread engine)."""
    i = ctx.global_id
    if i >= n_frontier:
        return
    node = int(frontier.read(ctx, i))
    begin = int(row_ptr.read(ctx, node))
    end = int(row_ptr.read(ctx, node + 1))
    if end > begin:
        nbrs = col_idx.read_vec(ctx, begin, end - begin)
    else:
        nbrs = []
    for nb in np.asarray(nbrs).tolist():
        ctx.charge_ops(2)
        if int(cost.read(ctx, nb)) == int(INF):
            cost.write(ctx, nb, np.uint32(level + 1))
            slot = int(ctx.atomic_add(counter.region, counter.offset, 1, np.int64))
            seq.write(ctx, slot, np.uint32(nb))
    if persist_on:
        ctx.persist()


@vectorized_for(bfs_kernel)
def bfs_kernel_warp(wctx, row_ptr, col_idx, frontier, n_frontier, cost, seq,
                    counter, level, persist_on):
    """Warp-vectorized frontier expansion via the gather/scatter primitives.

    The neighbour walk is the irregular part: each lane gathers a
    different-sized adjacency run, and a neighbour is *claimed* by the
    first lane (in lane-major flat order) that observes it unvisited -
    exactly the order the scalar threads resolve their sequential
    read-modify-write races in.
    """
    g = wctx.global_ids
    sel = wctx.active(g < n_frontier)
    if sel.size == 0:
        return
    nodes = frontier.read_warp(wctx, g[sel], lanes=sel).astype(np.int64)
    begins = row_ptr.read_warp(wctx, nodes, lanes=sel).astype(np.int64)
    ends = row_ptr.read_warp(wctx, nodes + 1, lanes=sel).astype(np.int64)
    counts = ends - begins
    has = counts > 0
    nbrs = col_idx.read_gather_warp(wctx, begins[has], counts[has],
                                    lanes=sel[has]).astype(np.int64)
    total = nbrs.size
    if total == 0:
        if persist_on:
            wctx.persist(sel)
        return
    wctx.charge_ops(2 * total)
    # Every neighbour costs one cost-array load (same accounting whether it
    # turns out visited or not); the values come from the live view since
    # claim resolution below encodes the scalar lane's program order.
    wctx.meter_loads(cost.region, total, cost.dtype.itemsize)
    cand = cost.np[nbrs] == INF
    cand_flat = np.flatnonzero(cand)
    _uniq, first = np.unique(nbrs[cand_flat], return_index=True)
    claim_flat = cand_flat[np.sort(first)]
    kc = claim_flat.size
    if kc:
        lane_of = np.repeat(sel[has], counts[has])
        claim_lanes = lane_of[claim_flat]
        claim_nb = nbrs[claim_flat]
        cost.write_warp(wctx, claim_nb,
                        np.full(kc, np.uint32(level + 1), dtype=np.uint32),
                        lanes=claim_lanes)
        slots = wctx.atomic_add(
            counter.region,
            np.full(kc, counter.offset, dtype=np.int64), 1, np.int64,
            lanes=claim_lanes,
        )
        seq.write_warp(wctx, slots, claim_nb.astype(np.uint32),
                       lanes=claim_lanes)
    if persist_on:
        wctx.persist(sel)


@dataclass
class BfsConfig:
    """Scaled BFS parameters.

    The default graph is a 128 x 640 corridor grid with no shortcuts: low
    degree and a ~770-level diameter, preserving (at ~1/6 scale) the USA
    road network's defining property - thousands of tiny BFS levels - that
    drives CAP's per-iteration overheads in the paper (6000 iterations).
    """

    rows: int = 128
    cols: int = 640
    shortcut_fraction: float = 0.0
    source: int = 0
    seed: int = 17
    engine: str = "bulk"      # "bulk" or "kernel"
    block_dim: int = 128
    max_levels: int = 100_000


class GraphBfs:
    """The BFS workload runner."""

    name = "BFS"
    category = Category.NATIVE
    fine_grained = True
    paper_data_bytes = 1_000_000_000  # Table 1: USA road network, 1 GB

    def __init__(self, config: BfsConfig | None = None) -> None:
        self.config = config or BfsConfig()
        if self.config.engine not in ("bulk", "kernel"):
            raise ValueError(f"unknown engine {self.config.engine!r}")

    # -- layout -----------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.config.rows * self.config.cols

    def _buffer_bytes(self) -> int:
        return _HEADER_BYTES + 8 * self.n_nodes  # cost + sequence

    def _cost_off(self) -> int:
        return _HEADER_BYTES

    def _seq_off(self) -> int:
        return _HEADER_BYTES + 4 * self.n_nodes

    # -- execution -----------------------------------------------------------------

    def run(self, mode: Mode, system=None, crash_injector=None,
            resume_buffer=None) -> RunResult:
        cfg = self.config
        system = system or make_system(mode)
        driver = ModeDriver(system, mode)
        row_ptr_np, col_idx_np = make_road_graph(cfg.rows, cfg.cols, cfg.seed,
                                                 cfg.shortcut_fraction)
        n = self.n_nodes
        # Read-only graph staged into HBM once (not persisted).
        graph_hbm = system.machine.alloc_hbm("bfs.graph",
                                             row_ptr_np.nbytes + col_idx_np.nbytes)
        row_ptr = DeviceArray(graph_hbm, np.int64, 0, n + 1)
        col_idx = DeviceArray(graph_hbm, np.int32, row_ptr_np.nbytes, col_idx_np.size)
        row_ptr.np[:] = row_ptr_np
        col_idx.np[:] = col_idx_np

        # A fresh bulk traversal expands the same levels under every mode;
        # a resumed one starts from whatever the crash left durable, and the
        # kernel engine's levels are the launch itself.
        trajectory = None
        if resume_buffer is not None:
            buf = resume_buffer
        else:
            if cfg.engine == "bulk":
                trajectory = HostTrajectory(self.name, row_ptr_np, col_idx_np,
                                            cfg.source)
            buf = driver.buffer("/pm/bfs.state", self._buffer_bytes(),
                                fine_grained=True, paper_bytes=self.paper_data_bytes)
            buf.visible_view(np.uint32, self._cost_off(), n)[:] = INF
            if buf.gpm is not None:
                buf.gpm.region.persist_range(0, self._buffer_bytes())
        self._state = (system, driver, buf, row_ptr_np, col_idx_np)

        def traverse():
            return self._traverse(driver, buf, row_ptr, col_idx,
                                  row_ptr_np, col_idx_np, crash_injector,
                                  trajectory)

        levels, window = measure(system, traverse)
        return RunResult(
            workload=self.name, mode=mode, elapsed=window.elapsed, window=window,
            extras={"levels": levels, "nodes": n},
        )

    def _traverse(self, driver, buf, row_ptr, col_idx, row_ptr_np, col_idx_np,
                  injector, trajectory) -> int:
        # The whole level-synchronous search runs inside one persistence
        # window: with 768 micro-kernels, per-launch DDIO toggling would
        # dominate (the paper brackets the kernel-launch region similarly).
        driver.persist_phase_begin()
        try:
            return self._traverse_inner(driver, buf, row_ptr, col_idx,
                                        row_ptr_np, col_idx_np, injector,
                                        trajectory)
        finally:
            driver.persist_phase_end()

    def _traverse_inner(self, driver, buf, row_ptr, col_idx, row_ptr_np,
                        col_idx_np, injector, trajectory) -> int:
        cfg = self.config
        system = driver.system
        n = self.n_nodes
        cost_view = buf.visible_view(np.uint32, self._cost_off(), n)
        header = buf.visible_view(np.uint32, 0, 2)
        level = int(header[0])
        visited = int(header[1])
        if level == 0 and visited == 0:
            # Fresh start: seed the source node (cost 0, first in sequence).
            frontier_np = np.array([cfg.source], dtype=np.uint32)
            cost_view[cfg.source] = 0
            system.gpu.scatter_store_bulk(
                buf.kernel_region,
                np.array([self._cost_off() + 4 * cfg.source, self._seq_off()]),
                np.array([0, cfg.source], dtype=np.uint32), item_bytes=4,
                fence_rounds=1 if driver.mode.data_on_pm else 0,
            )
            self._persist_level(driver, buf, frontier_np, 0, 0)
            visited = 1
            level = 1
            self._commit_level(driver, buf, level, visited)
        else:
            # Resume.  Costs >= the in-flight level are *uncommitted* partial
            # writes (the progress record persists only after a level's cost
            # and sequence writes); reset them so the redo sees them as
            # unvisited - otherwise their subtrees would never be explored.
            stale = (cost_view >= level) & (cost_view != INF)
            stale_nodes = np.flatnonzero(stale)
            if stale_nodes.size:
                cost_view[stale_nodes] = INF
                system.gpu.scatter_store_bulk(
                    buf.kernel_region,
                    self._cost_off() + 4 * stale_nodes.astype(np.int64),
                    np.full(stale_nodes.size, INF, dtype=np.uint32),
                    item_bytes=4,
                    fence_rounds=1 if driver.mode.data_on_pm else 0,
                )
            # The frontier is every node at the last durable level.
            frontier_np = np.flatnonzero(cost_view == level - 1).astype(np.uint32)

        mask = np.zeros(n, dtype=bool)
        while frontier_np.size and level < cfg.max_levels:
            if cfg.engine == "kernel":
                new = self._level_kernel(driver, buf, row_ptr, col_idx,
                                         frontier_np, level, visited, injector)
            else:
                new = self._level_bulk(driver, buf, row_ptr_np, col_idx_np,
                                       cost_view, frontier_np, level, visited,
                                       mask, trajectory)
            self._persist_level(driver, buf, new, level, visited)
            visited += new.size
            self._commit_level(driver, buf, level + 1, visited)
            frontier_np = new
            level += 1
        return level

    def _level_bulk(self, driver, buf, row_ptr_np, col_idx_np, cost_view,
                    frontier_np, level, visited, mask, trajectory) -> np.ndarray:
        def expand():
            return self._expand_level(row_ptr_np, col_idx_np, cost_view,
                                      frontier_np, level, visited, mask)

        if trajectory is None:
            new, offsets, values = expand()
        else:
            new, offsets, values = trajectory.step(level, expand)
        # One relaxation kernel per level writes both the new costs
        # (scattered) and the visit sequence (contiguous, coalesced), in
        # the visible image ``cost_view`` reads too.
        driver.system.gpu.scatter_store_bulk(
            buf.kernel_region, offsets, values, item_bytes=4,
            fence_rounds=1 if driver.mode.data_on_pm else 0,
            ops_per_item=6,
        )
        return new

    def _expand_level(self, row_ptr_np, col_idx_np, cost_view, frontier_np,
                      level, visited, mask):
        """One level's host math: ``(new, offsets, values)``.

        Reads ``cost_view`` (unvisited test) but writes nothing there;
        ``mask`` is scratch and comes back all False.
        """
        starts = row_ptr_np[frontier_np]
        ends = row_ptr_np[frontier_np + 1]
        counts = ends - starts
        total = int(counts.sum())
        if total:
            # Vectorized ragged CSR gather (flat indices, segment-major):
            # per-byte segment shift + the shared 0..total-1 ramp.
            before = np.cumsum(counts)
            before -= counts
            np.subtract(starts, before, out=before)
            idx = np.repeat(before, counts)
            idx += bulk.iota64(total)
            gather = col_idx_np[idx]
        else:
            gather = np.array([], dtype=np.int32)
        # Filter before dedup: most neighbours are already visited by
        # mid-search, so dedup runs over the short unvisited tail.  The
        # scatter-into-mask produces the same sorted unique set np.unique
        # would, without the sort; only the touched bits are reset.
        cand = gather[cost_view[gather] == INF]
        mask[cand] = True
        new_idx = np.flatnonzero(mask)
        mask[new_idx] = False
        new = new_idx.astype(np.uint32)
        k = new.size
        offsets = np.empty(2 * k, dtype=np.int64)
        np.multiply(new_idx, 4, out=offsets[:k])
        offsets[:k] += self._cost_off()
        np.multiply(bulk.iota64(k), 4, out=offsets[k:])
        offsets[k:] += self._seq_off() + 4 * visited
        values = np.empty(2 * k, dtype=np.uint32)
        values[:k] = level
        values[k:] = new
        return new, offsets, values

    def _level_kernel(self, driver, buf, row_ptr, col_idx, frontier_np, level,
                      visited, injector) -> np.ndarray:
        cfg = self.config
        system = driver.system
        n_f = frontier_np.size
        hbm = system.machine.alloc_hbm(f"bfs.front{level}", n_f * 4 + 64)
        frontier = DeviceArray(hbm, np.uint32, 0, n_f)
        frontier.np[:] = frontier_np
        counter = DeviceArray(hbm, np.int64, n_f * 4 + (-n_f * 4) % 8, 1)
        counter.np[0] = visited
        cost = buf.array(np.uint32, self._cost_off(), self.n_nodes)
        seq = buf.array(np.uint32, self._seq_off(), self.n_nodes)
        grid = (n_f + cfg.block_dim - 1) // cfg.block_dim
        # (already inside the traversal-wide persistence window)
        res = system.gpu.launch(
            bfs_kernel, grid, cfg.block_dim,
            (row_ptr, col_idx, frontier, n_f, cost, seq, counter, level - 1,
             driver.mode.data_on_pm),
            crash_injector=injector,
        )
        self._last_lane = res.lane
        new_count = int(counter.np[0]) - visited
        new = buf.visible_view(np.uint32, self._seq_off() + 4 * visited, new_count).copy()
        system.machine.free(hbm)
        return new

    # -- persistence of per-level results --------------------------------------------

    def _persist_level(self, driver, buf, new, level, visited) -> None:
        """Mode-appropriate persistence of this level's cost/seq updates."""
        if driver.mode.in_kernel_persist or new.size == 0:
            return
        if not buf.wants_segments:
            # CAP/GPUfs persist the whole buffer regardless of the segment
            # list (their write amplification) - skip building it.
            buf.persist_all()
            return
        starts = np.concatenate([
            self._cost_off() + 4 * new.astype(np.int64),
            self._seq_off() + 4 * (visited + np.arange(new.size, dtype=np.int64)),
        ])
        buf.persist_segments(starts, np.full(starts.size, 4, dtype=np.int64))

    def _commit_level(self, driver, buf, next_level, visited) -> None:
        """Durably advance the progress record (level, visited count)."""
        system = driver.system
        header = buf.visible_view(np.uint32, 0, 2)
        header[0] = next_level
        header[1] = visited
        if driver.mode.in_kernel_persist:
            packed = int(next_level) | (int(visited) << 32)
            system.gpu.store_and_persist_value(buf.kernel_region, 0,
                                               np.uint64(packed), np.uint64)
        elif driver.mode is Mode.GPM_NDP:
            system.cpu.persist_range(buf.kernel_region, 0, 8)
        else:
            buf.persist_range(0, _HEADER_BYTES)

    # -- verification -------------------------------------------------------------------

    def verify(self, buf_or_view=None) -> bool:
        """Check final costs against the host reference."""
        system, driver, buf, row_ptr_np, col_idx_np = self._state
        ref = reference_bfs(row_ptr_np, col_idx_np, self.config.source)
        got = buf.visible_view(np.uint32, self._cost_off(), self.n_nodes)
        return bool(np.array_equal(ref, got))
