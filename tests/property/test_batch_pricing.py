"""The batched circuit pricing against the link-by-link pricing it replaced.

``evaluate_many`` gathers the hosts of every link of every circuit into
two index arrays and prices them with one array call
(``CostSpace.vector_distances``, or one gather from the latency matrix);
each circuit's usage, path delay and load penalty are then reduced in
the order the one-circuit pricing used.  ``reference_evaluate`` below is
that pricing, kept here verbatim as the reference: one ``latency(u, v)``
call per link and one ``node_penalty(node)`` call per distinct unpinned
host.  The two must agree bit for bit, field for field, for all three
evaluators — on co-hosted links, zero-rate links, pinned-only circuits
and 1- to 4-dimensional vectors, with the ground truth under an
exponential weighting (whose array form rounds differently from its
scalar form).
"""

from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandwidth_costs import BandwidthAwareEvaluator
from repro.core.circuit import Circuit, Service
from repro.core.cost_space import CostSpace, CostSpaceSpec, ScalarDimension
from repro.core.costs import CircuitCost, CostSpaceEvaluator, GroundTruthEvaluator
from repro.core.weighting import exponential, linear, squared
from repro.network.bandwidth import BandwidthMatrix
from repro.network.latency import LatencyMatrix
from repro.query.operators import ServiceSpec

# -- the reference ------------------------------------------------------------


def _link_latencies(
    circuit: Circuit, latency_fn: Callable[[int, int], float]
) -> list[float]:
    """Hop latency of every circuit link, in link order (0.0 when co-hosted)."""
    if not circuit.is_fully_placed():
        raise ValueError(f"circuit {circuit.name} is not fully placed")
    hops = []
    for link in circuit.links:
        u = circuit.host_of(link.source)
        v = circuit.host_of(link.target)
        hops.append(0.0 if u == v else latency_fn(u, v))
    return hops


def _usage(circuit: Circuit, hops: list[float]) -> float:
    total = 0.0
    for link, hop in zip(circuit.links, hops):
        total += link.rate * hop
    return total


def _path_delay(circuit: Circuit, hops: list[float]) -> float:
    delay: dict[str, float] = {}

    incoming: dict[str, list[tuple[str, float]]] = {sid: [] for sid in circuit.services}
    for link, hop in zip(circuit.links, hops):
        incoming[link.target].append((link.source, hop))

    def arrival(sid: str) -> float:
        if sid in delay:
            return delay[sid]
        worst = 0.0
        for source, hop in incoming[sid]:
            worst = max(worst, arrival(source) + hop)
        delay[sid] = worst
        return worst

    return max((arrival(sid) for sid in circuit.sink_ids()), default=0.0)


def _evaluate(
    circuit: Circuit,
    latency_fn: Callable[[int, int], float],
    penalty_fn: Callable[[int], float],
    load_weight: float,
) -> CircuitCost:
    # Each link is priced once; both reductions read the same hops.
    hops = _link_latencies(circuit, latency_fn)
    usage = _usage(circuit, hops)
    latency = _path_delay(circuit, hops)
    # Count each distinct hosting node once, but only for unpinned
    # services — pinned endpoints are not a placement choice.
    unpinned_hosts = {
        circuit.host_of(sid) for sid in circuit.unpinned_ids()
    }
    penalty = sum(penalty_fn(node) for node in unpinned_hosts)
    return CircuitCost(
        network_usage=usage,
        consumer_latency=latency,
        load_penalty=penalty,
        total=usage + load_weight * penalty,
    )


def reference_evaluate(evaluator, circuit: Circuit, load_weight: float) -> CircuitCost:
    """One circuit, priced link by link through the evaluator's scalar methods."""
    cost = _evaluate(circuit, evaluator.latency, evaluator.node_penalty, load_weight)
    if isinstance(evaluator, BandwidthAwareEvaluator):
        cost = CircuitCost(
            cost.network_usage,
            cost.consumer_latency,
            cost.load_penalty,
            cost.total + evaluator.congestion_penalty(circuit),
        )
    return cost


def bits(cost: CircuitCost) -> tuple[str, ...]:
    """Every field as the hex of its float: equal only if equal bit for bit."""
    return tuple(
        float(value).hex()
        for value in (
            cost.network_usage,
            cost.consumer_latency,
            cost.load_penalty,
            cost.total,
        )
    )


# -- inputs -------------------------------------------------------------------

NUM_NODES = 12
HOST_POOL = 5  # few hosts, so co-hosted (free) links are common


def symmetric(rng, low, high, diagonal):
    upper = np.triu(rng.uniform(low, high, size=(NUM_NODES, NUM_NODES)), 1)
    matrix = upper + upper.T
    np.fill_diagonal(matrix, diagonal)
    return matrix


def random_circuit(rng, name: str, pinned_only: bool, wide: bool = False) -> Circuit:
    """A random DAG circuit: pinned sources and sink, unpinned joins, rates ≥ 0.

    A ``wide`` circuit spreads 8–11 joins over every node, so its load
    penalty sums enough hosts for a pairwise (numpy) sum to differ from
    the builtin one.
    """
    circuit = Circuit(name=name)
    relay, join = ServiceSpec.relay(), ServiceSpec.join()
    ids = []
    for a in range(int(rng.integers(1, 4))):
        sid = f"{name}/p{a}"
        node = int(rng.integers(HOST_POOL))
        circuit.add_service(Service(sid, relay, node, frozenset((sid,))))
        ids.append(sid)
    joins = 0 if pinned_only else int(rng.integers(8, 12) if wide else rng.integers(1, 6))
    for i in range(joins):
        sid = f"{name}/j{i}"
        circuit.add_service(Service(sid, join, None, frozenset((sid,))))
        for source in rng.choice(ids, size=min(len(ids), 2), replace=False):
            rate = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 8.0))
            circuit.add_link(str(source), sid, rate)
        ids.append(sid)
    sink = f"{name}/sink"
    circuit.add_service(Service(sink, relay, int(rng.integers(HOST_POOL)), frozenset((sink,))))
    circuit.add_link(ids[-1], sink, float(rng.uniform(0.0, 8.0)))
    for sid in circuit.unpinned_ids():
        circuit.assign(sid, int(rng.integers(NUM_NODES if wide else HOST_POOL)))
    return circuit


@st.composite
def batches(draw):
    """Random circuits, the three evaluators over one node set, a load weight."""
    seed = draw(st.integers(min_value=0, max_value=1 << 16))
    vector_dims = draw(st.integers(min_value=1, max_value=4))
    scalar_dims = draw(st.integers(min_value=0, max_value=2))
    kinds = draw(
        st.lists(st.sampled_from(["pinned-only", "narrow", "wide"]), min_size=1, max_size=6)
    )
    load_weight = draw(st.sampled_from([0.0, 0.7, 1.0, 2.5]))
    rng = np.random.default_rng(seed)

    spec = CostSpaceSpec(
        vector_dims,
        tuple(ScalarDimension(f"m{k}", squared()) for k in range(scalar_dims)),
    )
    space = CostSpace.from_embedding(
        spec,
        rng.uniform(-100.0, 100.0, size=(NUM_NODES, vector_dims)),
        {f"m{k}": rng.uniform(0.0, 1.0, NUM_NODES) for k in range(scalar_dims)},
    )
    latencies = LatencyMatrix(symmetric(rng, 1.0, 200.0, 0.0))
    loads = rng.uniform(0.0, 1.0, NUM_NODES)
    evaluators = [
        CostSpaceEvaluator(space),
        GroundTruthEvaluator(latencies, loads, exponential(steepness=3.0)),
        BandwidthAwareEvaluator(
            latencies, BandwidthMatrix(symmetric(rng, 0.5, 10.0, np.inf)), loads
        ),
    ]
    circuits = [
        random_circuit(rng, f"c{i}", kind == "pinned-only", kind == "wide")
        for i, kind in enumerate(kinds)
    ]
    return circuits, evaluators, load_weight


# -- properties ---------------------------------------------------------------


@given(batches())
@settings(max_examples=150, deadline=None)
def test_the_batch_is_the_link_by_link_pricing_bit_for_bit(case):
    circuits, evaluators, load_weight = case
    for evaluator in evaluators:
        want = [bits(reference_evaluate(evaluator, c, load_weight)) for c in circuits]
        got = evaluator.evaluate_many(circuits, load_weight=load_weight)
        assert [bits(cost) for cost in got] == want
        one_by_one = [evaluator.evaluate(c, load_weight=load_weight) for c in circuits]
        assert [bits(cost) for cost in one_by_one] == want


@given(batches())
@settings(max_examples=30, deadline=None)
def test_an_unplaced_circuit_in_the_batch_raises(case):
    circuits, evaluators, _ = case
    unplaced = random_circuit(np.random.default_rng(0), "u", pinned_only=False)
    del unplaced.placement[unplaced.unpinned_ids()[0]]
    for evaluator in evaluators:
        with pytest.raises(ValueError, match="u is not fully placed"):
            evaluator.evaluate_many([*circuits, unplaced])


@given(
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_vector_distances_are_the_pairwise_vector_distance(seed, vector_dims):
    rng = np.random.default_rng(seed)
    n = 300
    scale = 10.0 ** rng.integers(-3, 4, size=(n, 1))
    space = CostSpace.from_embedding(
        CostSpaceSpec(vector_dims), rng.normal(0.0, 1.0, size=(n, vector_dims)) * scale
    )
    u = rng.integers(n, size=2000)
    v = np.where(rng.random(2000) < 0.1, u, rng.integers(n, size=2000))
    got = space.vector_distances(u, v)
    want = np.array([space.vector_distance(int(a), int(b)) for a, b in zip(u, v)])
    assert got.tobytes() == want.tobytes()


@given(
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_cached_scalar_penalties_are_the_per_node_penalty(seed, scalar_dims):
    rng = np.random.default_rng(seed)
    n = 2000
    spec = CostSpaceSpec(
        2, tuple(ScalarDimension(f"m{k}", linear(1.0)) for k in range(scalar_dims))
    )
    metrics = {
        f"m{k}": rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-3, 4, size=n)
        for k in range(scalar_dims)
    }
    space = CostSpace.from_embedding(spec, rng.normal(size=(n, 2)), metrics)
    want = np.array([space.scalar_penalty(node) for node in range(n)])
    assert space.scalar_penalties().tobytes() == want.tobytes()
