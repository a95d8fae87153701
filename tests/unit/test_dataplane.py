"""Unit tests for the data-plane runtime (transport + coordinator)."""

import dataclasses

import numpy as np
import pytest

from repro.core.circuit import Circuit, Service
from repro.network.topology import grid_topology
from repro.query.model import Consumer, Producer, QuerySpec
from repro.query.operators import ServiceSpec
from repro.query.plan import JoinNode, LeafNode, LogicalPlan
from repro.query.selectivity import Statistics
from repro.runtime.dataplane import DataPlane, RuntimeConfig, _JOIN
from repro.runtime.join_state import JoinState
from repro.runtime.oracle import HeapTransport
from repro.runtime.transport import ArrayTransport
from repro.sbon.overlay import Overlay
from repro.sbon.simulator import Simulation, SimulationConfig
from repro.workloads.queries import WorkloadParams, random_query
from repro.workloads.scenarios import planted_latency_matrix, perfect_cost_space

PARAMS = WorkloadParams(
    num_producers=3, rate_bounds=(3.0, 8.0), selectivity_bounds=(0.2, 0.6)
)


def arr(*values, dtype=np.int64):
    return np.asarray(values, dtype=dtype)


class TestArrayTransport:
    def test_send_due_roundtrip(self):
        t = ArrayTransport()
        t.send(arr(5, 3, 7), arr(1, 2, 3), arr(0, 0, 1), arr(10, 11, 12),
               arr(0, 0, 0), np.ones(3), arr(100, 101, 102))
        assert t.in_flight == 3 and t.sent == 3
        batch = t.due(4)
        assert batch is not None and list(batch["op"]) == [2]
        assert t.in_flight == 2 and t.delivered == 1
        batch = t.due(7)
        assert sorted(batch["seq"]) == [100, 102]
        assert t.due(100) is None
        assert t.sent == t.delivered + t.in_flight

    def test_growth_preserves_contents(self):
        t = ArrayTransport()
        n = 5000  # force several doublings
        seqs = np.arange(n)
        t.send(np.full(n, 9), seqs % 7, np.zeros(n, dtype=np.int64), seqs,
               np.zeros(n, dtype=np.int64), np.ones(n), seqs)
        batch = t.due(9)
        assert batch["seq"].size == n
        assert set(batch["seq"]) == set(range(n))

    def test_remap_drops_with_accounting(self):
        t = ArrayTransport()
        t.send(arr(5, 5), arr(0, 1), arr(0, 0), arr(1, 2), arr(0, 0),
               np.ones(2), arr(0, 1))
        mapping = np.array([7, -1])
        assert t.remap_ops(mapping) == 1
        assert t.dropped == 1
        assert t.sent == t.delivered + t.in_flight
        batch = t.due(5)
        assert list(batch["op"]) == [7]


class TestHeapTransport:
    def test_round_grouping(self):
        t = HeapTransport()
        t.send_one(5, 1, 0, 9, 0, 1, 0, 1.0)   # in-flight, round 1
        t.send_one(5, 2, 1, 9, 0, 2, 0, 1.0)   # cascade output, round 2
        first = t.due(5, 1)
        assert [e[5] for e in first] == [1]
        second = t.due(5, 2)
        assert [e[5] for e in second] == [2]
        assert t.sent == t.delivered + t.in_flight

    def test_remap_drops_with_accounting(self):
        t = HeapTransport()
        t.send_one(5, 1, 0, 0, 0, 1, 0, 1.0)
        t.send_one(5, 1, 1, 1, 0, 2, 0, 1.0)
        assert t.remap_ops(np.array([3, -1])) == 1
        assert t.in_flight == 1 and t.dropped == 1
        assert t.due(5, 1)[0][3] == 3


def small_overlay(seed=0, circuits=2):
    overlay = Overlay.build(
        grid_topology(4, 4), vector_dims=2, embedding_rounds=20, seed=seed
    )
    optimizer = overlay.integrated_optimizer()
    for i in range(circuits):
        query, stats = random_query(16, PARAMS, name=f"q{i}", seed=seed + i)
        overlay.install(optimizer.optimize(query, stats))
    return overlay


def planted_overlay():
    """An empty overlay on a planted 4-node latency matrix."""
    positions = [(0.0, 0.0), (8.0, 0.0), (4.0, 6.0), (4.0, 2.0)]
    latencies = planted_latency_matrix(positions, scale=10.0)
    space = perfect_cost_space([tuple(10.0 * c for c in p) for p in positions])
    return Overlay(latencies, space)


def planted_join_overlay(rate_a=5.0, rate_b=5.0, sel=0.4):
    """Two sources -> join -> sink on a planted 4-node latency matrix."""
    overlay = planted_overlay()
    circuit = Circuit(name="q")
    circuit.add_service(Service("q/a", ServiceSpec.relay(), 0, frozenset(("A",))))
    circuit.add_service(Service("q/b", ServiceSpec.relay(), 1, frozenset(("B",))))
    circuit.add_service(Service("q/join", ServiceSpec.join(), None, frozenset(("A", "B"))))
    circuit.add_service(Service("q/sink", ServiceSpec.relay(), 2, frozenset(("A", "B"))))
    circuit.add_link("q/a", "q/join", rate_a)
    circuit.add_link("q/b", "q/join", rate_b)
    circuit.add_link("q/join", "q/sink", rate_a * rate_b * sel)
    circuit.assign("q/join", 3)
    overlay.install_circuit(circuit)
    return overlay, circuit


class TestRuntimeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(window=-1)
        with pytest.raises(ValueError):
            RuntimeConfig(tick_ms=0.0)
        with pytest.raises(ValueError):
            RuntimeConfig(node_capacity=-1.0)
        with pytest.raises(ValueError):
            RuntimeConfig(eviction_slack=-2)
        # NaN fails every comparison, so it must be rejected explicitly:
        # a NaN capacity would drop every delivery as a capacity drop.
        with pytest.raises(ValueError):
            RuntimeConfig(node_capacity=float("nan"))
        with pytest.raises(ValueError):
            RuntimeConfig(tick_ms=float("nan"))
        with pytest.raises(ValueError):
            RuntimeConfig(tick_ms=float("inf"))
        # An unbounded capacity stays legal.
        assert RuntimeConfig(node_capacity=float("inf")).node_capacity == float("inf")

    def test_no_field_selects_a_reference_path(self):
        # One fast path per layer, pinned to the scalar oracle: every
        # config field shapes behaviour, none picks an implementation.
        assert {f.name for f in dataclasses.fields(RuntimeConfig)} == {
            "window",
            "tick_ms",
            "node_capacity",
            "eviction_slack",
            "seed",
            "reliable",
            "retransmit_buffer",
            "drift",
            "load_model",
            "compact_threshold",
        }
        assert {f.name for f in dataclasses.fields(SimulationConfig)} == {
            "reopt_interval",
            "migration_threshold",
            "use_ground_truth_for_reopt",
            "load_weight",
        }


class TestCompile:
    def test_structure_detected(self):
        overlay, circuit = planted_join_overlay()
        plane = DataPlane(overlay)
        assert plane._arena.num_ops == 4
        assert plane._src_ops.size == 2
        assert int((plane._kind == _JOIN).sum()) == 1
        assert int(plane._is_sink.sum()) == 1
        # Source emission rates come from the circuit's link rates.
        np.testing.assert_allclose(sorted(plane._op_rate[plane._src_ops]), [5.0, 5.0])

    def test_join_pmatch_realizes_estimated_rate(self):
        overlay, circuit = planted_join_overlay(sel=0.4)
        plane = DataPlane(overlay, RuntimeConfig(seed=1))
        for _ in range(600):
            plane.step()
        stats = plane.link_stats()
        measured = stats[("q", "q/join", "q/sink")]["rate"]
        estimated = next(
            l.rate for l in circuit.links if l.target == "q/sink"
        )
        assert measured == pytest.approx(estimated, rel=0.2)

    def test_source_rates_realized(self):
        overlay, circuit = planted_join_overlay()
        plane = DataPlane(overlay, RuntimeConfig(seed=2))
        for _ in range(400):
            plane.step()
        stats = plane.link_stats()
        assert stats[("q", "q/a", "q/join")]["rate"] == pytest.approx(5.0, rel=0.15)

    def test_aggregate_factor_realized_downstream_of_join(self):
        query = QuerySpec(
            "q",
            [Producer("A", node=0, rate=4.0), Producer("B", node=1, rate=4.0)],
            Consumer("C", node=2),
            aggregate_factor=0.25,
        )
        stats = Statistics.build({"A": 4.0, "B": 4.0}, {("A", "B"): 0.1})
        plan = LogicalPlan(JoinNode(LeafNode("A"), LeafNode("B")))
        circuit = Circuit.from_plan(plan, query, stats)
        circuit.assign("q/join0", 3)
        circuit.assign("q/agg", 3)
        overlay = planted_overlay()
        overlay.install_circuit(circuit)
        plane = DataPlane(overlay, RuntimeConfig(seed=5))
        for _ in range(2000):
            plane.step()
        measured = plane.link_stats()
        for src, dst in (("q/join0", "q/agg"), ("q/agg", "q/sink:C")):
            link = next(l for l in circuit.links if (l.source, l.target) == (src, dst))
            assert measured[("q", src, dst)]["rate"] == pytest.approx(link.rate, rel=0.2)


class TestTraffic:
    def test_deliveries_and_latency_percentiles(self):
        overlay, _ = planted_join_overlay()
        plane = DataPlane(overlay, RuntimeConfig(seed=3))
        delivered = 0
        for _ in range(200):
            record = plane.step()
            delivered += record.delivered
            if record.delivered:
                assert record.latency_p50 <= record.latency_p95 <= record.latency_p99
                assert record.latency_p50 > 0  # the sink is remote
        assert delivered > 0
        assert plane.accounting()["balanced"]

    def test_backpressure_drops_are_counted(self):
        overlay, circuit = planted_join_overlay(rate_a=20.0, rate_b=20.0)
        plane = DataPlane(overlay, RuntimeConfig(seed=4, node_capacity=3.0))
        for _ in range(60):
            plane.step()
        assert plane.dropped_capacity > 0
        assert int(plane.dropped_by_node.sum()) == plane.dropped_capacity
        acct = plane.accounting()
        assert acct["balanced"]
        assert acct["transport_delivered"] == acct["processed"] + acct["dropped"]

    def test_dead_node_deliveries_dropped(self):
        overlay, circuit = planted_join_overlay()
        plane = DataPlane(overlay, RuntimeConfig(seed=5))
        for _ in range(20):
            plane.step()
        alive = np.ones(overlay.num_nodes, dtype=bool)
        alive[2] = False  # the sink's host dies; deliveries must drop
        overlay.apply_liveness(alive)
        before = plane.sink_delivered
        for _ in range(30):
            plane.step()
        assert plane.dropped_dead > 0
        assert plane.sink_delivered == before or plane.dropped_dead > 0
        assert plane.accounting()["balanced"]

    def test_dead_source_stops_emitting(self):
        overlay, _ = planted_join_overlay()
        plane = DataPlane(overlay, RuntimeConfig(seed=6))
        alive = np.ones(overlay.num_nodes, dtype=bool)
        alive[0] = False
        alive[1] = False
        overlay.apply_liveness(alive)
        record = plane.step()
        assert record.emitted == 0

    @pytest.mark.parametrize("path", ["step", "step_scalar"])
    def test_migration_rehomes_in_flight_tuples(self, path):
        overlay, circuit = planted_join_overlay()
        plane = DataPlane(overlay, RuntimeConfig(seed=7))
        step = getattr(plane, path)
        joined_on_old = 0
        for _ in range(10):
            step()
            joined_on_old += plane.tick_node_kind_processed[3, _JOIN]
        assert joined_on_old > 0
        in_flight = plane.accounting()["in_flight"]
        assert in_flight > 0
        # Move the join mid-stream; nothing may be lost, and from the
        # next tick on every join arrival is processed on the new host.
        overlay.apply_migration("q", "q/join", 2)
        joined_on_new = 0
        for _ in range(40):
            step()
            assert plane.tick_node_kind_processed[3, _JOIN] == 0
            joined_on_new += plane.tick_node_kind_processed[2, _JOIN]
        assert joined_on_new > 0
        acct = plane.accounting()
        assert acct["balanced"]
        assert acct["dropped"] == 0  # re-homed, not dropped

    @pytest.mark.parametrize("path", ["step", "step_scalar"])
    def test_measured_usage_is_link_tuples_times_latency(self, path):
        overlay, circuit = planted_join_overlay()
        plane = DataPlane(overlay, RuntimeConfig(seed=12))
        for _ in range(300):
            getattr(plane, path)()
        lat = overlay.latencies
        total = sum(
            stats["tuples"] * lat.latency(circuit.host_of(src), circuit.host_of(dst))
            for (_, src, dst), stats in plane.link_stats().items()
        )
        assert total > 0
        assert plane.measured_usage_rate() * plane.tick == pytest.approx(total, rel=1e-9)

    def test_uninstall_drops_in_flight_with_accounting(self):
        overlay = small_overlay(seed=1)
        plane = DataPlane(overlay, RuntimeConfig(seed=8))
        for _ in range(10):
            plane.step()
        overlay.uninstall("q0")
        plane.step()
        assert plane.dropped_uninstalled > 0
        assert plane.accounting()["balanced"]

    def test_same_name_replacement_recompiles(self):
        # Regression: a replaced circuit under an unchanged name (and
        # unchanged dict order) must not keep executing the stale one.
        overlay, _ = planted_join_overlay(rate_a=5.0, rate_b=5.0)
        plane = DataPlane(overlay, RuntimeConfig(seed=13))
        plane.step()
        overlay.uninstall("q")
        replacement, _ = planted_join_overlay(rate_a=50.0, rate_b=50.0)
        overlay.install_circuit(replacement.circuits["q"])
        plane.step()
        np.testing.assert_allclose(sorted(plane._op_rate[plane._src_ops]), [50.0, 50.0])
        assert plane.accounting()["balanced"]

    def test_scalar_path_churn_leaves_slot_table_alone(self):
        # The slot table serves step() only; the scalar path holds none
        # through installs and uninstalls.
        overlay, _ = planted_join_overlay(rate_a=5.0, rate_b=5.0)
        plane = DataPlane(overlay, RuntimeConfig(seed=13))
        plane.step_scalar()
        for rate in (10.0, 20.0, 30.0):
            overlay.uninstall("q")
            replacement, _ = planted_join_overlay(rate_a=rate, rate_b=rate)
            overlay.install_circuit(replacement.circuits["q"])
            plane.step_scalar()
        assert not isinstance(plane._join, JoinState)


class TestModeLocking:
    def test_mixed_paths_rejected(self):
        plane = DataPlane(small_overlay(seed=2), RuntimeConfig(seed=9))
        plane.step()
        with pytest.raises(RuntimeError):
            plane.step_scalar()

    def test_scalar_first_then_vector_rejected(self):
        plane = DataPlane(small_overlay(seed=2), RuntimeConfig(seed=9))
        plane.step_scalar()
        with pytest.raises(RuntimeError):
            plane.step()


class TestSimulationIntegration:
    def test_data_plane_true_builds_default(self):
        overlay = small_overlay(seed=3)
        sim = Simulation(overlay, config=SimulationConfig(reopt_interval=0), data_plane=True)
        series = sim.run(20)
        assert sim.data_plane is not None
        assert any(r.emitted > 0 for r in series.records)
        assert sim.data_plane.accounting()["balanced"]

    def test_traffic_fields_in_tick_records(self):
        overlay = small_overlay(seed=4)
        plane = DataPlane(overlay, RuntimeConfig(seed=11))
        sim = Simulation(
            overlay, config=SimulationConfig(reopt_interval=0), data_plane=plane
        )
        record = sim.step()
        assert record.emitted > 0
        assert record.data_usage > 0
        summary = sim.run(10).summary()
        assert "delivered" in summary and "mean_data_usage" in summary

    def test_without_data_plane_fields_stay_zero(self):
        overlay = small_overlay(seed=5)
        sim = Simulation(overlay, config=SimulationConfig(reopt_interval=0))
        record = sim.step()
        assert record.emitted == record.delivered == record.dropped == 0
        assert "delivered" not in sim.series.summary()

    def test_measured_usage_tracks_estimated(self):
        # With real traffic flowing, the measured rate x latency should
        # land in the ballpark of the estimator's prices (E14, live).
        overlay, _ = planted_join_overlay()
        plane = DataPlane(overlay, RuntimeConfig(seed=12))
        for _ in range(500):
            plane.step()
        estimated = overlay.total_network_usage()
        assert plane.measured_usage_rate() == pytest.approx(estimated, rel=0.25)
