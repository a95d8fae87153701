"""Unit tests for virtual placement algorithms."""

import numpy as np
import pytest

from repro.core import virtual_placement
from repro.core.circuit import Circuit, Service
from repro.core.optimizer import pinned_vector_positions
from repro.core.virtual_placement import (
    centroid_placement,
    gradient_descent_placement,
    placement_energy,
    placement_utilization,
    relaxation_placement,
)
from repro.query.model import Consumer, Producer, QuerySpec
from repro.query.operators import ServiceSpec
from repro.query.plan import JoinNode, LeafNode, LogicalPlan
from repro.query.selectivity import Statistics


def one_join_circuit(rate_a=4.0, rate_b=4.0, sel=0.25):
    query = QuerySpec(
        name="q",
        producers=[
            Producer("A", node=0, rate=rate_a),
            Producer("B", node=1, rate=rate_b),
        ],
        consumer=Consumer("C", node=2),
    )
    stats = Statistics.build({"A": rate_a, "B": rate_b}, {("A", "B"): sel})
    plan = LogicalPlan(JoinNode(LeafNode("A"), LeafNode("B")))
    return Circuit.from_plan(plan, query, stats), stats


PINNED = {
    "q/src:A": np.array([0.0, 0.0]),
    "q/src:B": np.array([10.0, 0.0]),
    "q/sink:C": np.array([5.0, 10.0]),
}


class TestRelaxation:
    def test_single_join_equilibrium_is_weighted_centroid(self):
        circuit, _ = one_join_circuit(rate_a=4.0, rate_b=4.0, sel=0.25)
        # Link rates: A 4, B 4, out 4 -> equal weights -> plain centroid.
        vp = relaxation_placement(circuit, PINNED)
        expected = (PINNED["q/src:A"] + PINNED["q/src:B"] + PINNED["q/sink:C"]) / 3
        assert np.allclose(vp.position_of("q/join0"), expected, atol=1e-3)
        assert vp.converged

    def test_rates_pull_service_toward_heavy_stream(self):
        heavy, _ = one_join_circuit(rate_a=40.0, rate_b=4.0, sel=0.025)
        vp_heavy = relaxation_placement(heavy, PINNED)
        balanced, _ = one_join_circuit(rate_a=4.0, rate_b=4.0, sel=0.25)
        vp_balanced = relaxation_placement(balanced, PINNED)
        # Heavier A stream drags the join toward A's position (x=0).
        assert (
            vp_heavy.position_of("q/join0")[0]
            < vp_balanced.position_of("q/join0")[0]
        )

    def test_missing_pinned_position_rejected(self):
        circuit, _ = one_join_circuit()
        with pytest.raises(ValueError):
            relaxation_placement(circuit, {"q/src:A": np.zeros(2)})

    def test_inconsistent_dimensionality_rejected(self):
        circuit, _ = one_join_circuit()
        bad = dict(PINNED)
        bad["q/sink:C"] = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            relaxation_placement(circuit, bad)

    def test_no_unpinned_services_is_noop(self):
        query = QuerySpec(
            name="q1",
            producers=[Producer("A", node=0, rate=1.0)],
            consumer=Consumer("C", node=1),
        )
        stats = Statistics.build({"A": 1.0})
        circuit = Circuit.from_plan(LogicalPlan(LeafNode("A")), query, stats)
        vp = relaxation_placement(
            circuit,
            {"q1/src:A": np.zeros(2), "q1/sink:C": np.ones(2)},
        )
        assert vp.positions == {}
        assert vp.converged

    def test_energy_not_above_center_start(self):
        # The fixed point must have energy <= the initial all-at-center
        # configuration (relaxation descends the convex energy).
        circuit, _ = one_join_circuit(rate_a=20.0, rate_b=1.0, sel=0.05)
        vp = relaxation_placement(circuit, PINNED)
        center = np.mean(list(PINNED.values()), axis=0)
        positions = dict(PINNED)
        positions["q/join0"] = center
        start_energy = placement_energy(circuit, positions)
        assert vp.objective <= start_energy + 1e-9


class TestCentroidAndGradient:
    def test_centroid_ignores_rates(self):
        balanced, _ = one_join_circuit(rate_a=4.0, rate_b=4.0, sel=0.25)
        skewed, _ = one_join_circuit(rate_a=40.0, rate_b=4.0, sel=0.025)
        vp_b = centroid_placement(balanced, PINNED)
        vp_s = centroid_placement(skewed, PINNED)
        assert np.allclose(
            vp_b.position_of("q/join0"), vp_s.position_of("q/join0"), atol=1e-6
        )

    def test_gradient_descent_beats_relaxation_on_true_objective(self):
        # Weiszfeld minimizes sum rate*dist, relaxation minimizes
        # sum rate*dist^2; on skewed rates the geometric-median answer
        # must be at least as good on the linear objective.
        circuit, _ = one_join_circuit(rate_a=30.0, rate_b=2.0, sel=0.05)
        vp_grad = gradient_descent_placement(circuit, PINNED)
        vp_relax = relaxation_placement(circuit, PINNED)

        def utilization(vp):
            positions = dict(PINNED)
            positions.update(vp.positions)
            return placement_utilization(circuit, positions)

        assert utilization(vp_grad) <= utilization(vp_relax) + 1e-6

    def test_gradient_converges(self):
        circuit, _ = one_join_circuit()
        vp = gradient_descent_placement(circuit, PINNED)
        assert vp.converged


class TestMultiServicePlacement:
    def test_chain_of_joins_orders_spatially(self):
        # 4 producers on a line; the join chain should settle in
        # between, monotone along the line.
        producers = [
            Producer("P1", node=0, rate=5.0),
            Producer("P2", node=1, rate=5.0),
            Producer("P3", node=2, rate=5.0),
            Producer("P4", node=3, rate=5.0),
        ]
        query = QuerySpec(name="q", producers=producers, consumer=Consumer("C", node=4))
        stats = Statistics.build(
            {p.name: 5.0 for p in producers}, default_selectivity=0.1
        )
        plan = LogicalPlan(
            JoinNode(
                JoinNode(JoinNode(LeafNode("P1"), LeafNode("P2")), LeafNode("P3")),
                LeafNode("P4"),
            )
        )
        circuit = Circuit.from_plan(plan, query, stats)
        pinned = {
            "q/src:P1": np.array([0.0, 0.0]),
            "q/src:P2": np.array([1.0, 0.0]),
            "q/src:P3": np.array([2.0, 0.0]),
            "q/src:P4": np.array([3.0, 0.0]),
            "q/sink:C": np.array([4.0, 0.0]),
        }
        vp = relaxation_placement(circuit, pinned)
        xs = [vp.position_of(f"q/join{i}")[0] for i in range(3)]
        assert xs[0] < xs[1] < xs[2]
        assert all(0.0 < x < 4.0 for x in xs)

    def test_position_of_unknown_service(self):
        circuit, _ = one_join_circuit()
        vp = relaxation_placement(circuit, PINNED)
        with pytest.raises(KeyError):
            vp.position_of("nope")


def zero_rate_chain():
    """``p0 -0.0-> a -2.0-> b -0.0-> p1``: a spring pair tied to no pin."""
    circuit = Circuit(name="z")
    for node, sid in enumerate(("z/p0", "z/p1")):
        circuit.add_service(
            Service(sid, ServiceSpec.relay(), pinned_node=node, producers=frozenset((sid,)))
        )
    for sid in ("z/a", "z/b"):
        circuit.add_service(
            Service(sid, ServiceSpec.join(), pinned_node=None, producers=frozenset((sid,)))
        )
    circuit.add_link("z/p0", "z/a", 0.0)
    circuit.add_link("z/a", "z/b", 2.0)
    circuit.add_link("z/b", "z/p1", 0.0)
    return circuit, {"z/p0": np.array([0.0, 0.0]), "z/p1": np.array([10.0, 4.0])}


class TestZeroRateAnchoring:
    """A service no positive spring ties to a pin sits at the pinned centroid."""

    @pytest.fixture(params=[1, 1 << 30], ids=["sparse", "dense"])
    def solver(self, request, monkeypatch):
        monkeypatch.setattr(virtual_placement, "SPARSE_SOLVER_THRESHOLD", request.param)

    def test_relaxation_leaves_the_floating_pair_at_the_pinned_centroid(self, solver):
        circuit, pinned = zero_rate_chain()
        vp = relaxation_placement(circuit, pinned)
        for sid in ("z/a", "z/b"):
            assert np.array_equal(vp.position_of(sid), [5.0, 2.0])
        assert (vp.iterations, vp.converged, vp.objective) == (0, True, 0.0)

    def test_centroid_ties_the_chain_with_unit_springs(self, solver):
        circuit, pinned = zero_rate_chain()
        vp = centroid_placement(circuit, pinned)
        assert np.allclose(vp.position_of("z/a"), [10 / 3, 4 / 3], rtol=0.0, atol=1e-12)
        assert np.allclose(vp.position_of("z/b"), [20 / 3, 8 / 3], rtol=0.0, atol=1e-12)
