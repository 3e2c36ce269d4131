"""Synthetic road-network graphs and level-synchronous graph algorithms.

The paper's BFS, Connected Components and Shortest Path benchmarks run
on the W-USA road network (|V| = 6.2M).  Road networks are near-planar
with small average degree and enormous diameter, which is why those
benchmarks launch their kernel thousands of times (1748 / 2147 / 2577
launches): each launch processes one small frontier / active set.

We cannot ship the DIMACS W-USA graph, so :class:`RoadNetwork`
generates a structurally similar synthetic: a W x H grid (near-planar,
degree <= 4) with a small fraction of random "highway" shortcut edges
and random positive edge weights.  The real level-synchronous
algorithms below (BFS, label-propagation CC, frontier Bellman-Ford
SSSP) run on it at laptop scale - validated against networkx in the
test suite - and their per-round active-set profiles are rescaled to
the paper's launch counts and vertex counts to drive the simulator.

CC's label propagation is Jacobi-style (each round reads only the
previous round's labels), so it is vectorized over the CSR arrays and
its result does not depend on vertex order.  SSSP's relaxation is
Gauss-Seidel-style: a frontier vertex reads distances that earlier
frontier vertices lowered in the same round, and the next frontier is
the iteration order of a Python ``set``.  Both shape the per-round
counts, so SSSP keeps its scalar loop, over plain Python lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from repro.errors import WorkloadError


@dataclass(frozen=True)
class CsrGraph:
    """Compressed-sparse-row adjacency with per-edge weights."""

    indptr: np.ndarray   # (V+1,)
    indices: np.ndarray  # (E,)
    weights: np.ndarray  # (E,)

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edge_weights(self, v: int) -> np.ndarray:
        return self.weights[self.indptr[v]:self.indptr[v + 1]]


def generate_road_network(width: int, height: int, shortcut_fraction: float = 0.002,
                          seed: int = 7) -> CsrGraph:
    """A W x H grid with random shortcuts and integer-ish weights.

    Undirected (each edge stored in both directions).  Connected by
    construction (the grid backbone).
    """
    if width < 2 or height < 2:
        raise WorkloadError("road network needs at least a 2x2 grid")
    rng = np.random.default_rng(seed)
    n = width * height

    def vid(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return y * width + x

    xs, ys = np.meshgrid(np.arange(width), np.arange(height))
    xs = xs.ravel()
    ys = ys.ravel()

    src_list: List[np.ndarray] = []
    dst_list: List[np.ndarray] = []
    # Horizontal edges.
    mask = xs < width - 1
    src_list.append(vid(xs[mask], ys[mask]))
    dst_list.append(vid(xs[mask] + 1, ys[mask]))
    # Vertical edges.
    mask = ys < height - 1
    src_list.append(vid(xs[mask], ys[mask]))
    dst_list.append(vid(xs[mask], ys[mask] + 1))
    # Highway shortcuts (none when the fraction rounds to zero).
    n_short = int(n * shortcut_fraction)
    if n_short > 0:
        a = rng.integers(0, n, size=n_short)
        b = rng.integers(0, n, size=n_short)
        keep = a != b
        src_list.append(a[keep])
        dst_list.append(b[keep])

    src = np.concatenate(src_list)
    dst = np.concatenate(dst_list)
    # Symmetrize.
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    w = rng.integers(1, 20, size=len(src)).astype(np.float64)
    all_w = np.concatenate([w, w])

    order = np.argsort(all_src, kind="stable")
    all_src = all_src[order]
    all_dst = all_dst[order]
    all_w = all_w[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, all_src + 1, 1)
    indptr = np.cumsum(indptr)
    return CsrGraph(indptr=indptr, indices=all_dst.astype(np.int64), weights=all_w)


# -- real level-synchronous algorithms ------------------------------------------


def _check_source(source: int, n: int) -> None:
    if not 0 <= source < n:
        raise WorkloadError(
            f"source vertex {source} is outside the graph's [0, {n}) range")


def bfs_levels(graph: CsrGraph, source: int = 0) -> Tuple[np.ndarray, List[int]]:
    """Level-synchronous BFS; returns (level array, frontier sizes).

    Each entry of the frontier-size list corresponds to one kernel
    launch of the paper's BFS benchmark.
    """
    n = graph.num_vertices
    _check_source(source, n)
    level = np.full(n, -1, dtype=np.int64)
    level[source] = 0
    frontier = np.array([source], dtype=np.int64)
    sizes: List[int] = []
    depth = 0
    while len(frontier):
        sizes.append(len(frontier))
        # Gather all neighbors of the frontier.
        starts = graph.indptr[frontier]
        ends = graph.indptr[frontier + 1]
        counts = ends - starts
        if counts.sum() == 0:
            break
        gather = np.concatenate([
            graph.indices[s:e] for s, e in zip(starts, ends)])
        fresh = gather[level[gather] == -1]
        fresh = np.unique(fresh)
        depth += 1
        level[fresh] = depth
        frontier = fresh
    return level, sizes


def connected_components_labels(graph: CsrGraph) -> Tuple[np.ndarray, List[int]]:
    """Min-label propagation CC; returns (labels, active counts per round).

    Every round relaxes each active vertex's label to the minimum of
    its neighborhood - the data-parallel kernel of the paper's CC
    benchmark.  Active counts per round are the launch sizes.
    """
    n = graph.num_vertices
    indptr, indices = graph.indptr, graph.indices
    degree = np.diff(indptr)
    # reduceat over the starts of non-empty rows only: each segment then
    # runs exactly to the row's end (empty rows in between share it).
    rows = np.nonzero(degree)[0]
    row_starts = indptr[rows]
    edge_src = np.repeat(np.arange(n), degree)
    labels = np.arange(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    rounds: List[int] = []
    while active.any():
        rounds.append(int(active.sum()))
        proposal = labels.copy()
        if len(rows):
            proposal[rows] = np.minimum(
                labels[rows],
                np.minimum.reduceat(labels[indices], row_starts))
        new_labels = np.where(active, proposal, labels)
        changed = new_labels < labels
        labels = new_labels
        # Next round: changed vertices and their neighbors are active.
        active = changed.copy()
        active[indices[changed[edge_src]]] = True
    return labels, rounds


def sssp_distances(graph: CsrGraph, source: int = 0) -> Tuple[np.ndarray, List[int]]:
    """Frontier-based Bellman-Ford SSSP; returns (dist, active counts).

    Each relaxation compares against the live ``dist[u]``.  With
    parallel edges v->u this relaxes the same vertices in the same
    order as comparing against a snapshot of ``dist`` taken when v's
    row starts: the first edge whose candidate beats the snapshot also
    beats the live value (no earlier edge lowered it), later edges only
    lower ``dist[u]`` further, and re-adding u to ``relaxed`` leaves
    the set's iteration order unchanged.
    """
    n = graph.num_vertices
    _check_source(source, n)
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    weights = graph.weights.tolist()
    dist = [float("inf")] * n
    dist[source] = 0.0
    frontier = [source]
    rounds: List[int] = []
    while frontier:
        rounds.append(len(frontier))
        relaxed = set()
        for v in frontier:
            dv = dist[v]
            for e in range(indptr[v], indptr[v + 1]):
                u = indices[e]
                cand = dv + weights[e]
                if cand < dist[u]:
                    dist[u] = cand
                    relaxed.add(u)
        # The set's iteration order is the next round's processing order.
        frontier = list(relaxed)
    return np.array(dist, dtype=np.float64), rounds


# -- launch-profile rescaling -----------------------------------------------------


def rescale_profile(sizes: List[int], target_launches: int,
                    target_total: float) -> List[float]:
    """Stretch a small-graph launch profile to paper scale.

    Linearly resamples the per-launch active-set sizes to
    ``target_launches`` points and rescales so they sum to
    ``target_total`` items, preserving the profile's *shape* (the ramp
    up / long tail structure of road-network frontiers).
    """
    if not sizes:
        raise WorkloadError("empty launch profile")
    if target_launches < 1:
        raise WorkloadError("target_launches must be >= 1")
    src = np.asarray(sizes, dtype=np.float64)
    x_src = np.linspace(0.0, 1.0, num=len(src))
    x_dst = np.linspace(0.0, 1.0, num=target_launches)
    resampled = np.interp(x_dst, x_src, src)
    resampled = np.maximum(resampled, 1.0)
    resampled *= target_total / resampled.sum()
    return [float(v) for v in np.maximum(resampled, 1.0)]


# -- cached small instances (shared by the three graph workloads) ----------------

_SMALL_GRID = (96, 64)


@lru_cache(maxsize=1)
def small_road_network() -> CsrGraph:
    """The laptop-scale instance used for validation and profiles."""
    return generate_road_network(*_SMALL_GRID)


@lru_cache(maxsize=1)
def small_bfs_profile() -> Tuple[int, ...]:
    _, sizes = bfs_levels(small_road_network())
    return tuple(sizes)


@lru_cache(maxsize=1)
def small_cc_profile() -> Tuple[int, ...]:
    _, rounds = connected_components_labels(small_road_network())
    return tuple(rounds)


@lru_cache(maxsize=1)
def small_sssp_profile() -> Tuple[int, ...]:
    _, rounds = sssp_distances(small_road_network())
    return tuple(rounds)
