"""Road-network generation and the level-synchronous graph algorithms."""

import hashlib
from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.registry import workload_by_abbrev
from repro.workloads.roadnet import (
    CsrGraph,
    bfs_levels,
    connected_components_labels,
    generate_road_network,
    rescale_profile,
    small_bfs_profile,
    small_cc_profile,
    small_road_network,
    small_sssp_profile,
    sssp_distances,
)


# -- scalar reference oracles ------------------------------------------------------


def reference_cc_labels(graph: CsrGraph) -> Tuple[np.ndarray, List[int]]:
    """Per-vertex min-label propagation: the definition the vectorized
    :func:`connected_components_labels` must match element for element."""
    n = graph.num_vertices
    labels = np.arange(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    rounds: List[int] = []
    while active.any():
        rounds.append(int(active.sum()))
        new_labels = labels.copy()
        for v in np.nonzero(active)[0]:
            neigh = graph.neighbors(v)
            if len(neigh):
                m = labels[neigh].min()
                if m < new_labels[v]:
                    new_labels[v] = m
        changed = new_labels < labels
        labels = new_labels
        active = np.zeros(n, dtype=bool)
        for v in np.nonzero(changed)[0]:
            active[v] = True
            active[graph.neighbors(v)] = True
    return labels, rounds


def reference_sssp(graph: CsrGraph, source: int = 0) -> Tuple[np.ndarray, List[int]]:
    """Frontier Bellman-Ford over numpy slices, relaxing each row against
    a snapshot of ``dist`` taken when the row starts; the next frontier is
    the iteration order of the relaxed set."""
    n = graph.num_vertices
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    frontier = np.array([source], dtype=np.int64)
    rounds: List[int] = []
    while len(frontier):
        rounds.append(len(frontier))
        relaxed = set()
        for v in frontier:
            neigh = graph.neighbors(v)
            cand = dist[v] + graph.edge_weights(v)
            better = cand < dist[neigh]
            for u, du in zip(neigh[better], cand[better]):
                dist[u] = min(dist[u], du)
                relaxed.add(int(u))
        frontier = np.fromiter(relaxed, dtype=np.int64, count=len(relaxed))
    return dist, rounds


def csr_from_edges(n: int, edges: Sequence[Tuple[int, int, float]]) -> CsrGraph:
    """A directed CSR graph with the edges in the given order per row."""
    rows: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    for a, b, w in edges:
        rows[a].append((b, w))
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
    flat = [e for r in rows for e in r]
    return CsrGraph(indptr=indptr,
                    indices=np.array([b for b, _ in flat], dtype=np.int64),
                    weights=np.array([w for _, w in flat], dtype=np.float64))


def undirected(edges: Sequence[Tuple[int, int, float]]) -> List[Tuple[int, int, float]]:
    return [e for a, b, w in edges for e in ((a, b, w), (b, a, w))]


def assert_matches_oracles(graph: CsrGraph, source: int = 0) -> None:
    labels, rounds = connected_components_labels(graph)
    ref_labels, ref_rounds = reference_cc_labels(graph)
    assert labels.dtype == ref_labels.dtype
    assert np.array_equal(labels, ref_labels)
    assert rounds == ref_rounds
    dist, sp_rounds = sssp_distances(graph, source)
    ref_dist, ref_sp_rounds = reference_sssp(graph, source)
    assert dist.dtype == ref_dist.dtype
    assert np.array_equal(dist, ref_dist)
    assert sp_rounds == ref_sp_rounds


class TestGeneration:
    def test_grid_structure(self):
        g = generate_road_network(10, 8, shortcut_fraction=0.0)
        assert g.num_vertices == 80
        # Undirected grid: 2 * (W-1)*H + W*(H-1) directed edges... each
        # stored twice.
        expected = 2 * ((10 - 1) * 8 + 10 * (8 - 1))
        assert g.num_edges == expected

    def test_symmetry(self):
        g = generate_road_network(12, 9, seed=3)
        for v in (0, 17, 53):
            for u in g.neighbors(v):
                assert v in g.neighbors(int(u))

    def test_deterministic(self):
        a = generate_road_network(10, 10, seed=5)
        b = generate_road_network(10, 10, seed=5)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.weights, b.weights)

    def test_positive_weights(self):
        g = generate_road_network(10, 10)
        assert (g.weights > 0).all()

    def test_rejects_degenerate_grid(self):
        with pytest.raises(WorkloadError):
            generate_road_network(1, 5)


class TestAlgorithms:
    def test_bfs_covers_all_vertices_once(self):
        g = small_road_network()
        level, sizes = bfs_levels(g)
        assert (level >= 0).all()
        assert sum(sizes) == g.num_vertices

    def test_bfs_levels_differ_by_one_across_edges(self):
        g = small_road_network()
        level, _ = bfs_levels(g)
        for v in range(0, g.num_vertices, 97):
            for u in g.neighbors(v):
                assert abs(level[v] - level[int(u)]) <= 1

    def test_road_network_has_high_diameter(self):
        """The property that makes the paper's graph workloads launch
        thousands of short kernels."""
        g = small_road_network()
        _, sizes = bfs_levels(g)
        assert len(sizes) > 30
        assert max(sizes) < g.num_vertices / 10

    def test_cc_single_component(self):
        g = small_road_network()
        labels, rounds = connected_components_labels(g)
        assert (labels == 0).all()  # grid backbone keeps it connected
        assert len(rounds) > 1

    def test_sssp_triangle_inequality_on_edges(self):
        g = small_road_network()
        dist, _ = sssp_distances(g)
        for v in range(0, g.num_vertices, 131):
            for u, w in zip(g.neighbors(v), g.edge_weights(v)):
                assert dist[int(u)] <= dist[v] + w + 1e-9


class TestAgainstOracles:
    @given(width=st.integers(2, 24), height=st.integers(2, 24),
           shortcut_fraction=st.sampled_from([0.0, 0.002, 0.05, 0.3]),
           seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_generated_road_networks(self, width, height, shortcut_fraction,
                                     seed, data):
        g = generate_road_network(width, height, shortcut_fraction, seed)
        source = data.draw(st.integers(0, g.num_vertices - 1))
        assert_matches_oracles(g, source)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_multigraphs(self, data):
        """Directed graphs with isolated vertices, parallel edges and
        self-loops, in arbitrary row order."""
        n = data.draw(st.integers(1, 12))
        vertex = st.integers(0, n - 1)
        weight = st.integers(1, 9).map(float) | st.floats(0.1, 10.0)
        edges = data.draw(st.lists(st.tuples(vertex, vertex, weight),
                                   max_size=40))
        source = data.draw(vertex)
        assert_matches_oracles(csr_from_edges(n, edges), source)

    def test_trailing_isolated_vertex(self):
        # The last row is empty, so its start equals the edge count.
        g = csr_from_edges(4, undirected([(0, 1, 2.0), (1, 2, 3.0)]))
        assert_matches_oracles(g)
        labels, _ = connected_components_labels(g)
        assert labels.tolist() == [0, 0, 0, 3]
        dist, _ = sssp_distances(g)
        assert dist[3] == np.inf

    def test_two_components(self):
        g = csr_from_edges(6, undirected(
            [(5, 4, 1.0), (4, 3, 1.0), (0, 1, 1.0), (1, 2, 1.0)]))
        assert_matches_oracles(g, source=4)
        labels, _ = connected_components_labels(g)
        assert labels.tolist() == [0, 0, 0, 3, 3, 3]

    def test_inactive_vertex_keeps_its_label(self):
        # Directed: 2 drops to 0 in round 1, but 1 (which points at 2)
        # changed nothing and is no successor of 2, so it stays inactive
        # and keeps label 1 although its neighbour now holds 0.
        g = csr_from_edges(3, [(1, 2, 1.0), (2, 0, 1.0)])
        assert_matches_oracles(g)
        labels, rounds = connected_components_labels(g)
        assert labels.tolist() == [0, 1, 0]
        assert rounds == [3, 2]

    def test_parallel_edges(self):
        # 0->1 twice, the second edge cheaper; 0->2 twice, the first
        # cheaper; both orders relax each target once.
        g = csr_from_edges(4, undirected(
            [(0, 1, 9.0), (0, 2, 1.0), (0, 1, 4.0), (0, 2, 7.0),
             (1, 3, 1.0), (2, 3, 8.0)]))
        assert_matches_oracles(g)
        dist, _ = sssp_distances(g)
        assert dist.tolist() == [0.0, 4.0, 1.0, 5.0]


class TestSourceRange:
    @pytest.mark.parametrize("source", [-1, -12, 12, 99])
    def test_out_of_range_source_is_a_workload_error(self, source):
        g = generate_road_network(4, 3, shortcut_fraction=0.0)
        with pytest.raises(WorkloadError, match="source vertex"):
            bfs_levels(g, source=source)
        with pytest.raises(WorkloadError, match="source vertex"):
            sssp_distances(g, source=source)

    def test_last_vertex_is_a_valid_source(self):
        g = generate_road_network(4, 3, shortcut_fraction=0.0)
        level, _ = bfs_levels(g, source=11)
        dist, _ = sssp_distances(g, source=11)
        assert level[11] == 0 and dist[11] == 0.0


def _digest(values) -> str:
    return hashlib.sha256(repr(tuple(values)).encode()).hexdigest()


class TestPinnedProfiles:
    """sha256 of the launch profiles every graph workload is built from.

    A change to the graph builders or to ``rescale_profile`` fails here,
    naming the profile, before the golden fingerprints catch it.
    """

    @pytest.mark.parametrize("build, digest", [
        (small_bfs_profile,
         "27398992ae1c79693b6913d8a736f3bef615458ee7915fa1b72d7bac074a6d12"),
        (small_cc_profile,
         "1197181525660e5d1107410428c0df1890497eb95a8602b9abf517388ba5ecff"),
        (small_sssp_profile,
         "4cff623725292a712633313bf719dc3d4baca27baaaec5849749d8a3a7952a2c"),
    ], ids=["bfs", "cc", "sssp"])
    def test_small_profile(self, build, digest):
        assert _digest(build()) == digest

    @pytest.mark.parametrize("abbrev, launches, digest", [
        ("CC", 2147,
         "6c7966dcfa0e77ac68cb0bbe9018ba530ecf6df5f63943be53ddc997de31539c"),
        ("SP", 2577,
         "05ef94aee26954711c76a528d093d34679cd40d1404c9af7fba5243dee508835"),
    ])
    def test_desktop_invocations(self, abbrev, launches, digest):
        n_items = [inv.n_items for inv in
                   workload_by_abbrev(abbrev).invocations(tablet=False)]
        assert len(n_items) == launches
        assert _digest(n_items) == digest


class TestRescaleProfile:
    def test_total_and_count(self):
        scaled = rescale_profile([1, 5, 20, 5, 1], target_launches=100,
                                 target_total=1e6)
        assert len(scaled) == 100
        assert sum(scaled) == pytest.approx(1e6, rel=1e-6)

    def test_preserves_shape(self):
        scaled = rescale_profile([1, 10, 1], target_launches=9,
                                 target_total=900)
        assert scaled[4] > scaled[0]
        assert scaled[4] > scaled[-1]

    def test_no_zero_launches(self):
        scaled = rescale_profile([1, 1000000, 1], 50, 1e6)
        assert min(scaled) >= 1.0

    def test_rejects_empty_profile(self):
        with pytest.raises(WorkloadError):
            rescale_profile([], 10, 100.0)

    def test_rejects_zero_launches(self):
        with pytest.raises(WorkloadError):
            rescale_profile([1, 2], 0, 100.0)
