"""Unit tests for latency matrices and shortest paths."""

import numpy as np
import pytest

from repro.network.latency import (
    LatencyMatrix,
    dijkstra,
    shortest_path_latencies,
    shortest_path_latencies_scalar,
)
from repro.network.topology import (
    Topology,
    grid_topology,
    random_geometric_topology,
    ring_topology,
    star_topology,
)


class TestDijkstra:
    def test_line_graph_distances(self):
        topo = Topology(num_nodes=3)
        topo.add_link(0, 1, 2.0)
        topo.add_link(1, 2, 3.0)
        assert dijkstra(topo, 0) == [0.0, 2.0, 5.0]

    def test_prefers_cheaper_indirect_path(self):
        topo = Topology(num_nodes=3)
        topo.add_link(0, 2, 10.0)
        topo.add_link(0, 1, 1.0)
        topo.add_link(1, 2, 1.0)
        assert dijkstra(topo, 0)[2] == 2.0

    def test_unreachable_is_inf(self):
        topo = Topology(num_nodes=2)
        assert dijkstra(topo, 0)[1] == float("inf")

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            dijkstra(star_topology(3), 99)


class TestShortestPathMatrix:
    def test_symmetry_and_zero_diagonal(self):
        matrix = shortest_path_latencies(ring_topology(5, link_latency_ms=1.0))
        assert np.allclose(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0)

    def test_ring_max_distance(self):
        matrix = shortest_path_latencies(ring_topology(6, link_latency_ms=1.0))
        assert matrix.max() == 3.0  # halfway around

    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            shortest_path_latencies(Topology(num_nodes=2))

    def test_disconnected_raises_scalar(self):
        with pytest.raises(ValueError):
            shortest_path_latencies_scalar(Topology(num_nodes=2))


class TestScipyBackend:
    """The csgraph backend must match the per-source loop exactly."""

    def test_matches_scalar_on_geometric(self):
        topo = random_geometric_topology(60, radius=0.3, seed=3)
        fast = shortest_path_latencies(topo)
        slow = shortest_path_latencies_scalar(topo)
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-9)

    def test_matches_scalar_on_grid(self):
        topo = grid_topology(5, 5, link_latency_ms=2.5)
        np.testing.assert_allclose(
            shortest_path_latencies(topo),
            shortest_path_latencies_scalar(topo),
            rtol=1e-9,
            atol=1e-9,
        )

    def test_parallel_links_take_minimum(self):
        # csr_matrix sums duplicate entries; the backend must min-reduce
        # parallel links instead, like the relaxation loop does.
        topo = Topology(num_nodes=2)
        topo.add_link(0, 1, 10.0)
        topo.add_link(0, 1, 3.0)
        fast = shortest_path_latencies(topo)
        assert fast[0, 1] == 3.0
        np.testing.assert_allclose(fast, shortest_path_latencies_scalar(topo))

    def test_single_node(self):
        matrix = shortest_path_latencies(Topology(num_nodes=1))
        assert matrix.shape == (1, 1) and matrix[0, 0] == 0.0


class TestLatencyMatrix:
    def _simple(self) -> LatencyMatrix:
        return LatencyMatrix.from_topology(grid_topology(3, 3, link_latency_ms=1.0))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            LatencyMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            LatencyMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_mean_and_max(self):
        lm = self._simple()
        assert 0 < lm.mean_latency() <= lm.max_latency()
        assert lm.max_latency() == 4.0  # corner to corner of 3x3 grid

    def test_percentile_bounds(self):
        lm = self._simple()
        assert lm.percentile(0) <= lm.percentile(50) <= lm.percentile(100)
        assert lm.percentile(100) == lm.max_latency()

    def test_shortest_path_matrix_has_no_triangle_violations(self):
        lm = self._simple()
        assert lm.triangle_violation_fraction(sample_size=2000) == 0.0

    def test_injected_violations_are_detected(self):
        lm = self._simple().with_triangle_violations(fraction=0.3, inflation=3.0)
        assert lm.triangle_violation_fraction(sample_size=2000) > 0.0

    def test_perturbed_stays_valid_and_close(self):
        lm = self._simple()
        noisy = lm.perturbed(relative_sigma=0.05, seed=1)
        assert noisy.num_nodes == lm.num_nodes
        ratio = noisy.values[0, 1] / lm.values[0, 1]
        assert 0.5 < ratio < 2.0

    def test_perturbed_zero_sigma_is_identity(self):
        lm = self._simple()
        assert np.allclose(lm.perturbed(relative_sigma=0.0).values, lm.values)

    def test_submatrix_reindexes(self):
        lm = self._simple()
        sub = lm.submatrix([0, 4, 8])
        assert sub.num_nodes == 3
        assert sub.latency(0, 2) == lm.latency(0, 8)

    def test_latency_lookup(self):
        lm = self._simple()
        assert lm.latency(0, 1) == 1.0
        assert lm.latency(0, 0) == 0.0
