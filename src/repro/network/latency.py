"""Latency matrices: all-pairs shortest-path delays over a topology.

The SBON treats end-to-end latency between overlay nodes as the routing
latency of the underlying network, i.e. the shortest-path delay through
the topology graph.  This module computes dense all-pairs latency
matrices with Dijkstra's algorithm and provides utilities used by the
embedding experiments: triangle-inequality-violation (TIV) statistics,
synthetic TIV injection, and matrix perturbation for churn experiments.

All-pairs construction runs through ``scipy.sparse.csgraph.dijkstra``
(one C-level pass over a CSR adjacency — what makes 1000+-node topology
builds instant); the per-source Python loop is retained as
:func:`shortest_path_latencies_scalar`, the equivalence reference.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

from repro.network.topology import Topology

__all__ = [
    "LatencyMatrix",
    "shortest_path_latencies",
    "shortest_path_latencies_scalar",
    "dijkstra",
]


def dijkstra(topology: Topology, source: int) -> list[float]:
    """Single-source shortest path delays from ``source``.

    Returns:
        A list of length ``num_nodes`` where entry ``i`` is the minimum
        path latency from ``source`` to ``i`` (``inf`` if unreachable).
    """
    if not (0 <= source < topology.num_nodes):
        raise ValueError(f"source {source} outside topology")
    adj = topology.adjacency()
    dist = [math.inf] * topology.num_nodes
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for neighbor, latency in adj[node]:
            candidate = d + latency
            if candidate < dist[neighbor]:
                dist[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return dist


def shortest_path_latencies_scalar(topology: Topology) -> np.ndarray:
    """All-pairs latencies via the per-source Python Dijkstra loop.

    Retained as the scalar reference for :func:`shortest_path_latencies`.
    """
    n = topology.num_nodes
    matrix = np.zeros((n, n), dtype=float)
    for source in range(n):
        matrix[source, :] = dijkstra(topology, source)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("topology is disconnected; latency matrix undefined")
    return matrix


def shortest_path_latencies(topology: Topology) -> np.ndarray:
    """All-pairs shortest-path latency matrix of a connected topology.

    One ``scipy.sparse.csgraph`` pass.  Parallel links between the same
    pair are min-reduced before the CSR
    build (``csr_matrix`` *sums* duplicate entries, which would be
    wrong), matching the relaxation the scalar loop performs.
    """
    n = topology.num_nodes
    if not topology.links:
        if n > 1:
            raise ValueError("topology is disconnected; latency matrix undefined")
        return np.zeros((n, n), dtype=float)
    u = np.fromiter((l.u for l in topology.links), dtype=np.int64)
    v = np.fromiter((l.v for l in topology.links), dtype=np.int64)
    w = np.fromiter((l.latency_ms for l in topology.links), dtype=np.float64)
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    wts = np.concatenate([w, w])
    flat = rows * n + cols
    order = np.argsort(flat, kind="stable")
    flat, wts = flat[order], wts[order]
    uniq, starts = np.unique(flat, return_index=True)
    min_w = np.minimum.reduceat(wts, starts)
    graph = csr_matrix((min_w, (uniq // n, uniq % n)), shape=(n, n))
    matrix = csgraph_dijkstra(graph, directed=False)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("topology is disconnected; latency matrix undefined")
    return matrix


class LatencyMatrix:
    """A symmetric all-pairs latency matrix with analysis helpers.

    The matrix is the ground truth that network-coordinate embeddings
    approximate, and the oracle that placement-quality benchmarks
    measure against.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("latency matrix must be square")
        if not np.allclose(matrix, matrix.T, rtol=1e-9, atol=1e-9):
            raise ValueError("latency matrix must be symmetric")
        if np.any(np.diag(matrix) != 0):
            raise ValueError("latency matrix diagonal must be zero")
        if np.any(matrix < 0):
            raise ValueError("latencies must be non-negative")
        self._matrix = matrix

    @classmethod
    def from_topology(cls, topology: Topology) -> "LatencyMatrix":
        """Build the matrix from shortest paths over a topology."""
        return cls(shortest_path_latencies(topology))

    @classmethod
    def _wrap(cls, matrix: np.ndarray) -> "LatencyMatrix":
        """Internal: wrap a matrix already known to satisfy the invariants.

        Skips the O(n^2) validation pass; callers (e.g. the latency
        drift process) must preserve symmetry, zero diagonal, and
        non-negativity by construction.
        """
        wrapped = cls.__new__(cls)
        wrapped._matrix = matrix
        return wrapped

    @property
    def num_nodes(self) -> int:
        return self._matrix.shape[0]

    @property
    def values(self) -> np.ndarray:
        """The underlying (num_nodes x num_nodes) array (do not mutate)."""
        return self._matrix

    def latency(self, u: int, v: int) -> float:
        """Latency between nodes ``u`` and ``v`` in milliseconds."""
        return float(self._matrix[u, v])

    def mean_latency(self) -> float:
        """Mean off-diagonal latency."""
        n = self.num_nodes
        if n < 2:
            return 0.0
        total = float(self._matrix.sum())
        return total / (n * (n - 1))

    def max_latency(self) -> float:
        """Maximum pairwise latency (network diameter in delay terms)."""
        return float(self._matrix.max())

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of off-diagonal latencies."""
        n = self.num_nodes
        off_diag = self._matrix[~np.eye(n, dtype=bool)]
        return float(np.percentile(off_diag, q))

    def triangle_violation_fraction(self, sample_size: int = 20000, seed: int = 0) -> float:
        """Fraction of sampled node triples violating the triangle inequality.

        Internet latencies are known to violate the triangle inequality
        [Ng & Zhang]; shortest-path matrices never do, so this is only
        nonzero after :meth:`with_triangle_violations` perturbation.
        """
        n = self.num_nodes
        if n < 3:
            return 0.0
        rng = np.random.default_rng(seed)
        a = rng.integers(0, n, size=sample_size)
        b = rng.integers(0, n, size=sample_size)
        c = rng.integers(0, n, size=sample_size)
        distinct = (a != b) & (b != c) & (a != c)
        if not np.any(distinct):
            return 0.0
        a, b, c = a[distinct], b[distinct], c[distinct]
        violations = (
            self._matrix[a, c] > self._matrix[a, b] + self._matrix[b, c] + 1e-9
        )
        return float(violations.mean())

    def with_triangle_violations(
        self, fraction: float = 0.05, inflation: float = 2.0, seed: int = 0
    ) -> "LatencyMatrix":
        """Return a copy where a random fraction of pairs is inflated.

        Inflating direct pair latencies past their shortest-path value
        creates triangle-inequality violations, modelling real Internet
        routing inefficiency.  Used by embedding benchmarks (E9).
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if inflation < 1.0:
            raise ValueError("inflation must be >= 1")
        rng = np.random.default_rng(seed)
        matrix = self._matrix.copy()
        n = self.num_nodes
        rows, cols = np.triu_indices(n, k=1)
        inflate = rng.random(rows.shape[0]) < fraction
        matrix[rows[inflate], cols[inflate]] *= inflation
        matrix[cols[inflate], rows[inflate]] = matrix[rows[inflate], cols[inflate]]
        return LatencyMatrix(matrix)

    def perturbed(self, relative_sigma: float = 0.1, seed: int = 0) -> "LatencyMatrix":
        """Return a copy with multiplicative log-normal noise on each pair.

        Models slow latency drift for the re-optimization experiments
        (E7).  Noise is symmetric and keeps latencies positive.
        """
        if relative_sigma < 0:
            raise ValueError("relative_sigma must be non-negative")
        rng = np.random.default_rng(seed)
        n = self.num_nodes
        noise = rng.lognormal(mean=0.0, sigma=relative_sigma, size=(n, n))
        noise = np.triu(noise, k=1)
        noise = noise + noise.T + np.eye(n)
        return LatencyMatrix(self._matrix * noise)

    def submatrix(self, nodes: list[int]) -> "LatencyMatrix":
        """Restrict the matrix to a subset of nodes (reindexed densely)."""
        idx = np.asarray(nodes, dtype=int)
        return LatencyMatrix(self._matrix[np.ix_(idx, idx)])
