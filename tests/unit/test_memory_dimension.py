"""Unit tests for the memory scalar dimension (§3.1)."""

import numpy as np
import pytest

from repro.core.cost_space import CostSpace, CostSpaceSpec
from repro.core.optimizer import IntegratedOptimizer
from repro.network.topology import grid_topology
from repro.query.operators import ServiceSpec, state_units
from repro.sbon.overlay import Overlay
from repro.workloads.queries import random_query
from tests.unit.test_sbon import pinned_join_circuit


class TestStateUnits:
    def test_join_state_scales_with_rate_and_window(self):
        small = state_units(ServiceSpec.join(window_seconds=10), 2.0)
        big = state_units(ServiceSpec.join(window_seconds=100), 2.0)
        assert big == pytest.approx(10 * small)
        assert small == pytest.approx(20.0)

    def test_aggregate_state_is_compressed(self):
        join = state_units(ServiceSpec.join(window_seconds=60), 5.0)
        agg = state_units(ServiceSpec.aggregate(window_seconds=60), 5.0)
        assert agg == pytest.approx(0.1 * join)

    def test_stateless_services_hold_nothing(self):
        assert state_units(ServiceSpec.relay(), 100.0) == 0.0
        assert state_units(ServiceSpec.filter(0.5), 100.0) == 0.0


class TestNodeMemory:
    def _overlay(self, memory_capacity: float) -> Overlay:
        overlay = Overlay.build(grid_topology(4, 4), vector_dims=2, embedding_rounds=20, seed=0)
        overlay.set_node_capacity(5, memory_capacity=memory_capacity)
        return overlay

    def test_memory_load_fraction(self):
        overlay = self._overlay(memory_capacity=1000.0)
        overlay.install_circuit(pinned_join_circuit(host=5, rate=4.0, window=50.0))
        node, _, state = overlay._host_of[("q", "q/join")]
        assert node == 5
        assert state == pytest.approx(200.0)  # 4 tuples/s * 50 s
        assert overlay.memory_loads()[5] == pytest.approx(0.2)

    def test_memory_load_clamped(self):
        overlay = self._overlay(memory_capacity=10.0)
        overlay.install_circuit(pinned_join_circuit(host=5, rate=5.0, window=100.0))
        assert overlay.memory_loads()[5] == 1.0

    def test_capacity_validation(self):
        overlay = self._overlay(memory_capacity=1000.0)
        overlay.install_circuit(pinned_join_circuit(host=5, rate=4.0, window=50.0))
        with pytest.raises(ValueError):
            overlay.set_node_capacity(5, memory_capacity=0.0)
        assert overlay.memory_loads()[5] == pytest.approx(0.2)  # capacity kept


class TestMemoryCostSpace:
    def test_spec_factory(self):
        spec = CostSpaceSpec.latency_load_memory(vector_dims=2)
        assert spec.dims == 4
        assert [d.metric for d in spec.scalar_dimensions] == ["cpu_load", "memory"]

    def test_overlay_refresh_feeds_memory_metric(self):
        overlay = Overlay.build(
            grid_topology(4, 4), vector_dims=2, embedding_rounds=15, seed=0
        )
        # Swap in a memory-aware space over the same embedding.
        vectors = overlay.cost_space.vector_matrix()
        spec = CostSpaceSpec.latency_load_memory(vector_dims=2)
        overlay.cost_space = CostSpace.from_embedding(
            spec,
            vectors,
            {"cpu_load": np.zeros(16), "memory": np.zeros(16)},
        )
        query, stats = random_query(16, seed=1)
        result = overlay.integrated_optimizer().optimize(query, stats)
        overlay.install(result)
        overlay.refresh_cost_space()
        hosts = {result.circuit.host_of(s) for s in result.circuit.unpinned_ids()}
        for host in hosts:
            # Joins hold window state -> memory scalar is nonzero.
            assert overlay.cost_space.coordinate(host).scalar[1] > 0

    def test_unknown_metric_provider_rejected(self):
        overlay = Overlay.build(
            grid_topology(3, 3), vector_dims=2, embedding_rounds=10, seed=0
        )
        vectors = overlay.cost_space.vector_matrix()
        from repro.core.cost_space import ScalarDimension
        from repro.core.weighting import linear

        spec = CostSpaceSpec(
            vector_dims=2,
            scalar_dimensions=(ScalarDimension("disk", linear()),),
        )
        overlay.cost_space = CostSpace.from_embedding(
            spec, vectors, {"disk": np.zeros(9)}
        )
        with pytest.raises(ValueError):
            overlay.refresh_cost_space()

    def test_memory_pressure_repels_placement(self):
        # A node saturated in memory should lose the mapping decision to
        # an equally-near node with free memory.
        positions = np.array([[0.0, 0.0], [10.0, 0.0], [10.1, 0.0]])
        spec = CostSpaceSpec.latency_load_memory(vector_dims=2)
        space = CostSpace.from_embedding(
            spec,
            positions,
            {
                "cpu_load": np.zeros(3),
                "memory": np.array([0.0, 1.0, 0.0]),
            },
        )
        from repro.core.coordinates import CostCoordinate

        target = CostCoordinate((10.0, 0.0), (0.0, 0.0))
        assert space.nearest_node(target) == 2
