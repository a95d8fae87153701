"""Unit tests for SBON nodes, the overlay, and metrics."""

import numpy as np
import pytest

from repro.query.operators import ServiceSpec
from repro.sbon.metrics import TickRecord, TimeSeries
from repro.sbon.node import HostedService, SBONNode
from repro.sbon.overlay import Overlay
from repro.network.topology import grid_topology
from repro.workloads.queries import random_query


class TestSBONNode:
    def _service(self, name="q", sid="q/join0", rate=10.0) -> HostedService:
        return HostedService(name, sid, ServiceSpec.join(), rate)

    def test_effective_load_combines_background_and_induced(self):
        node = SBONNode(index=0, background_load=0.3)
        node.host(self._service(rate=10.0))  # join: 0.02 * 10 = 0.2
        assert node.effective_load == pytest.approx(0.5)

    def test_load_clamped_to_one(self):
        node = SBONNode(index=0, background_load=0.9)
        node.host(self._service(rate=100.0))
        assert node.effective_load == 1.0
        assert 1.0 - node.effective_load == 0.0

    def test_capacity_scales_load(self):
        node = SBONNode(index=0, capacity=2.0, background_load=0.5)
        assert node.effective_load == 0.25

    def test_duplicate_hosting_rejected(self):
        node = SBONNode(index=0)
        node.host(self._service())
        with pytest.raises(ValueError):
            node.host(self._service())

    def test_evict_by_circuit(self):
        node = SBONNode(index=0)
        node.host(self._service(sid="q/join0"))
        node.host(self._service(sid="q/join1"))
        assert node.evict("q") == 2
        assert node.induced_load == 0.0

    def test_evict_specific_service(self):
        node = SBONNode(index=0)
        node.host(self._service(sid="q/join0"))
        node.host(self._service(sid="q/join1"))
        assert node.evict("q", "q/join0") == 1
        assert len(node.hosted) == 1

    def test_fail_evacuates(self):
        node = SBONNode(index=0)
        node.host(self._service())
        orphans = node.fail()
        assert len(orphans) == 1
        assert not node.alive
        with pytest.raises(RuntimeError):
            node.host(self._service())
        node.recover()
        assert node.alive

    def test_validation(self):
        with pytest.raises(ValueError):
            SBONNode(index=0, capacity=0.0)
        with pytest.raises(ValueError):
            SBONNode(index=0, background_load=-1.0)


class TestOverlay:
    def _overlay(self) -> Overlay:
        return Overlay.build(grid_topology(4, 4), vector_dims=2, embedding_rounds=20, seed=0)

    def test_build_wires_sizes(self):
        overlay = self._overlay()
        assert overlay.num_nodes == 16
        assert overlay.cost_space.num_nodes == 16

    def test_optimize_install_uninstall_cycle(self):
        overlay = self._overlay()
        query, stats = random_query(16, seed=1)
        result = overlay.integrated_optimizer().optimize(query, stats)
        overlay.install(result)
        assert result.circuit.name in overlay.circuits
        assert overlay.total_network_usage() > 0
        loads_with = overlay.loads().sum()
        overlay.uninstall(result.circuit.name)
        assert overlay.total_network_usage() == 0
        assert overlay.loads().sum() < loads_with

    def test_double_install_rejected(self):
        overlay = self._overlay()
        query, stats = random_query(16, seed=1)
        result = overlay.integrated_optimizer().optimize(query, stats)
        overlay.install(result)
        with pytest.raises(ValueError):
            overlay.install(result)

    def test_install_requires_placement(self):
        overlay = self._overlay()
        query, stats = random_query(16, seed=2)
        from repro.core.circuit import Circuit
        from repro.query.generator import best_plan

        circuit = Circuit.from_plan(
            best_plan(query.producer_names, stats), query, stats
        )
        with pytest.raises(ValueError):
            overlay.install_circuit(circuit)

    def test_refresh_cost_space_reflects_load(self):
        overlay = self._overlay()
        overlay.set_background_loads(np.full(16, 0.5))
        overlay.refresh_cost_space()
        assert overlay.cost_space.coordinate(0).scalar[0] > 0

    def test_apply_migration_moves_load(self):
        overlay = self._overlay()
        query, stats = random_query(16, seed=1)
        result = overlay.integrated_optimizer().optimize(query, stats)
        overlay.install(result)
        sid = result.circuit.unpinned_ids()[0]
        old = result.circuit.host_of(sid)
        new = (old + 1) % 16
        overlay.apply_migration(result.circuit.name, sid, new)
        assert result.circuit.host_of(sid) == new
        assert any(
            s.service_id == sid for s in overlay.nodes[new].hosted
        )
        assert not any(
            s.service_id == sid for s in overlay.nodes[old].hosted
        )

    def test_bad_load_vector_rejected(self):
        with pytest.raises(ValueError):
            self._overlay().set_background_loads(np.zeros(5))

    def test_set_node_capacity_propagates_to_vectorized_loads(self):
        # Regression: capacities were snapshot at construction, so a
        # post-build change was invisible to the array-backed loads().
        overlay = self._overlay()
        overlay.set_background_loads(np.full(16, 0.5))
        overlay.set_node_capacity(3, capacity=2.0)
        assert overlay.loads()[3] == pytest.approx(0.25)
        np.testing.assert_allclose(overlay.loads(), overlay.loads_scalar())

    def test_set_memory_capacity_propagates(self):
        overlay = self._overlay()
        query, stats = random_query(16, seed=1)
        overlay.install(overlay.integrated_optimizer().optimize(query, stats))
        hosts = [
            s for s in overlay.circuits[query.name].unpinned_ids()
        ]
        node = overlay.circuits[query.name].host_of(hosts[0])
        overlay.set_node_capacity(node, memory_capacity=1.0)
        memory = overlay.memory_loads()
        assert memory[node] == pytest.approx(
            min(1.0, overlay.nodes[node].memory_units / 1.0)
        )

    def test_sync_capacities_reads_direct_mutation(self):
        overlay = self._overlay()
        overlay.set_background_loads(np.full(16, 0.4))
        overlay.nodes[5].capacity = 4.0  # direct mutation, then sync
        overlay.sync_capacities()
        assert overlay.loads()[5] == pytest.approx(0.1)
        np.testing.assert_allclose(overlay.loads(), overlay.loads_scalar())

    def test_set_node_capacity_validation(self):
        overlay = self._overlay()
        with pytest.raises(ValueError):
            overlay.set_node_capacity(99, capacity=1.0)
        with pytest.raises(ValueError):
            overlay.set_node_capacity(0, capacity=0.0)
        with pytest.raises(ValueError):
            overlay.set_node_capacity(0, memory_capacity=-1.0)

    def test_liveness_array_agrees_with_node_objects(self):
        overlay = self._overlay()
        up = np.ones(16, dtype=bool)
        down = up.copy()
        down[[3, 7]] = False
        again = up.copy()
        again[[7, 11]] = False
        steps = [
            (down, ([3, 7], [])),
            (up, ([], [3, 7])),
            (again, ([7, 11], [])),
        ]
        for mask, expected in steps:
            assert overlay.apply_liveness(mask) == expected
            from_nodes = [node.alive for node in overlay.nodes]
            assert overlay.alive_mask().tolist() == from_nodes == mask.tolist()
            assert overlay.alive_flags() == from_nodes
            assert overlay.failed_nodes() == {
                node.index for node in overlay.nodes if not node.alive
            }
        # Masks handed out and masks handed in are copies: writing
        # either afterwards changes nothing.
        overlay.alive_mask()[:] = False
        again[0] = False
        assert overlay.alive_flags() == [node.alive for node in overlay.nodes]


class TestTimeSeries:
    def test_append_enforces_time_order(self):
        ts = TimeSeries()
        ts.append(TickRecord(1, 10.0, 0.1, 0.2))
        with pytest.raises(ValueError):
            ts.append(TickRecord(1, 11.0, 0.1, 0.2))

    def test_summaries(self):
        ts = TimeSeries()
        ts.append(TickRecord(1, 10.0, 0.1, 0.2, migrations=2))
        ts.append(TickRecord(2, 20.0, 0.1, 0.2, failures=1))
        assert ts.mean_usage() == 15.0
        assert ts.final_usage() == 20.0
        assert ts.peak_usage() == 20.0
        assert ts.total_migrations() == 2
        assert ts.total_failures() == 1
        assert ts.summary()["ticks"] == 2.0

    def test_empty_series(self):
        ts = TimeSeries()
        assert ts.mean_usage() == 0.0
        assert ts.final_usage() == 0.0
