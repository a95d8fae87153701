"""Unit tests for circuit cost evaluation."""

import numpy as np
import pytest

from repro.core.circuit import Circuit
from repro.core.costs import (
    CircuitCost,
    CostSpaceEvaluator,
    GroundTruthEvaluator,
    consumer_latency,
    network_usage,
)
from repro.core.cost_space import CostSpace, CostSpaceSpec
from repro.core.weighting import squared
from repro.network.latency import LatencyMatrix
from repro.query.generator import enumerate_all_plans
from repro.query.model import Consumer, Producer, QuerySpec
from repro.query.plan import JoinNode, LeafNode, LogicalPlan
from repro.query.selectivity import Statistics
from repro.workloads.queries import WorkloadParams, random_query
from repro.workloads.scenarios import perfect_cost_space, planted_latency_matrix


def placed_circuit() -> tuple[Circuit, LatencyMatrix]:
    """Two producers at (0,0), (10,0); consumer at (5,5); join on node 3."""
    positions = [(0.0, 0.0), (10.0, 0.0), (5.0, 5.0), (5.0, 0.0)]
    latencies = planted_latency_matrix(positions)
    query = QuerySpec(
        name="q",
        producers=[Producer("A", node=0, rate=4.0), Producer("B", node=1, rate=4.0)],
        consumer=Consumer("C", node=2),
    )
    stats = Statistics.build(
        {"A": 4.0, "B": 4.0}, {("A", "B"): 0.25}
    )
    plan = LogicalPlan(JoinNode(LeafNode("A"), LeafNode("B")))
    circuit = Circuit.from_plan(plan, query, stats)
    circuit.assign("q/join0", 3)
    return circuit, latencies


class TestNetworkUsage:
    def test_hand_computed_usage(self):
        circuit, lm = placed_circuit()
        # A->join: rate 4 x 5ms; B->join: 4 x 5; join->C: 4 (=4*4*0.25) x 5.
        expected = 4 * 5.0 + 4 * 5.0 + 4.0 * 5.0
        assert network_usage(circuit, lm.latency) == pytest.approx(expected)

    def test_colocated_link_is_free(self):
        circuit, lm = placed_circuit()
        circuit.assign("q/join0", 0)  # join on producer A's node
        # A->join free; B->join 4x10; join->C 4 x sqrt(50).
        expected = 4 * 10.0 + 4.0 * lm.latency(0, 2)
        assert network_usage(circuit, lm.latency) == pytest.approx(expected)

    def test_requires_full_placement(self):
        circuit, lm = placed_circuit()
        del circuit.placement["q/join0"]
        with pytest.raises(ValueError):
            network_usage(circuit, lm.latency)


class TestConsumerLatency:
    def test_longest_path(self):
        circuit, lm = placed_circuit()
        # Both producer paths: 5 + 5 = 10.
        assert consumer_latency(circuit, lm.latency) == pytest.approx(10.0)

    def test_asymmetric_paths_take_max(self):
        circuit, lm = placed_circuit()
        circuit.assign("q/join0", 0)
        expected = max(
            0.0 + lm.latency(0, 2),          # A path: colocated then to C
            lm.latency(1, 0) + lm.latency(0, 2),  # B path
        )
        assert consumer_latency(circuit, lm.latency) == pytest.approx(expected)


class TestEvaluators:
    def test_ground_truth_evaluator_components(self):
        circuit, lm = placed_circuit()
        loads = np.array([0.0, 0.0, 0.0, 0.5])
        ev = GroundTruthEvaluator(lm, loads, load_weighting=squared(100.0))
        cost = ev.evaluate(circuit, load_weight=2.0)
        assert cost.network_usage == pytest.approx(60.0)
        assert cost.load_penalty == pytest.approx(25.0)  # squared(0.5)*100
        assert cost.total == pytest.approx(60.0 + 2.0 * 25.0)

    def test_load_penalty_counts_unpinned_hosts_only(self):
        circuit, lm = placed_circuit()
        loads = np.array([1.0, 1.0, 1.0, 0.0])  # endpoints loaded, host idle
        ev = GroundTruthEvaluator(lm, loads)
        assert ev.evaluate(circuit).load_penalty == 0.0

    def test_cost_space_evaluator_matches_ground_truth_on_perfect_embedding(self):
        circuit, lm = placed_circuit()
        spec = CostSpaceSpec.latency_only(vector_dims=2)
        embedding = np.array([(0.0, 0.0), (10.0, 0.0), (5.0, 5.0), (5.0, 0.0)])
        space = CostSpace.from_embedding(spec, embedding)
        est = CostSpaceEvaluator(space).evaluate(circuit)
        true = GroundTruthEvaluator(lm).evaluate(circuit)
        assert est.network_usage == pytest.approx(true.network_usage)

    def test_cost_ordering(self):
        circuit, lm = placed_circuit()
        good = GroundTruthEvaluator(lm).evaluate(circuit)
        circuit.assign("q/join0", 0)
        bad = GroundTruthEvaluator(lm).evaluate(circuit)
        assert good < bad  # CircuitCost ordering by total


def _reference_cost(circuit, latency_fn, penalty_fn, load_weight) -> CircuitCost:
    """The evaluator as it was: each reduction prices every link itself."""
    usage = 0.0
    for link in circuit.links:
        u, v = circuit.host_of(link.source), circuit.host_of(link.target)
        if u != v:
            usage += link.rate * latency_fn(u, v)

    def arrival(sid: str) -> float:
        worst = 0.0
        for link in circuit.links:
            if link.target == sid:
                u, v = circuit.host_of(link.source), circuit.host_of(link.target)
                hop = 0.0 if u == v else latency_fn(u, v)
                worst = max(worst, arrival(link.source) + hop)
        return worst

    latency = max((arrival(sid) for sid in circuit.sink_ids()), default=0.0)
    hosts = {circuit.host_of(sid) for sid in circuit.unpinned_ids()}
    penalty = sum(penalty_fn(node) for node in hosts)
    return CircuitCost(usage, latency, penalty, usage + load_weight * penalty)


class TestLinksPricedOnce:
    def test_costs_equal_per_reduction_pricing_on_random_circuits(self):
        rng = np.random.default_rng(11)
        num_nodes = 30
        positions = rng.uniform(0, 100, size=(num_nodes, 2))
        loads = rng.uniform(0, 1, size=num_nodes)
        space = perfect_cost_space([tuple(p) for p in positions], list(loads))
        evaluators = [
            CostSpaceEvaluator(space),
            GroundTruthEvaluator(
                planted_latency_matrix([tuple(p) for p in positions]), loads
            ),
        ]
        for seed in range(200):
            query, stats = random_query(
                num_nodes, WorkloadParams(num_producers=2 + seed % 3), seed=seed
            )
            plans = enumerate_all_plans(query.producer_names)
            circuit = Circuit.from_plan(plans[seed % len(plans)], query, stats)
            for sid in circuit.unpinned_ids():
                # A small host pool, so co-hosted (free) links occur.
                circuit.assign(sid, int(rng.integers(6)))
            for evaluator in evaluators:
                assert evaluator.evaluate(circuit, load_weight=0.7) == _reference_cost(
                    circuit, evaluator.latency, evaluator.node_penalty, 0.7
                )

    def test_each_link_priced_once(self):
        """One array call prices every link of every circuit in a batch."""
        circuit, _ = placed_circuit()
        space = perfect_cost_space([(0.0, 0.0), (10.0, 0.0), (5.0, 5.0), (5.0, 0.0)])
        calls = []
        vector_distances = space.vector_distances

        def counted(u, v):
            calls.append(len(u))
            return vector_distances(u, v)

        space.vector_distances = counted
        CostSpaceEvaluator(space).evaluate_many([circuit, circuit.copy()])
        assert calls == [2 * len(circuit.links)]
