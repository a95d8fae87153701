"""The per-query compile against the per-plan compile it replaced.

:meth:`Circuit.from_plans` builds what a query's candidate plans share
(effective statistics, pinned sources and sink, the aggregate, one
output rate per producer set) once and then walks each plan's tree;
:meth:`Circuit.from_plan` is its one-plan case.  ``reference_from_plan``
below is the per-plan body both replaced, kept here verbatim as the
reference.  Every circuit must equal it field for field: service order
and services, link order, link rates by ``==``, and the pinned
placement — and so relaxation places both bit for bit alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circuit import Circuit, Service, effective_statistics
from repro.core.virtual_placement import placement_energy, relaxation_placement
from repro.query.generator import enumerate_all_plans, top_k_plans
from repro.query.model import Consumer, Producer, QuerySpec
from repro.query.operators import ServiceSpec
from repro.query.plan import JoinNode, LeafNode, LogicalPlan, PlanNode
from repro.query.selectivity import Statistics

# -- the reference ------------------------------------------------------------


def reference_from_plan(
    plan: LogicalPlan,
    query: QuerySpec,
    stats: Statistics,
    name: str | None = None,
    taps: dict[frozenset[str], int] | None = None,
) -> Circuit:
    """Compile a logical plan into a circuit for ``query`` (the replaced body)."""
    if plan.producers != frozenset(query.producer_names):
        raise ValueError("plan covers different producers than the query")
    taps = taps or {}
    effective = effective_statistics(query, stats)
    circuit = Circuit(name=name or query.name)

    def sourced(node: PlanNode) -> set[str]:
        """Producers the compiled circuit still reads directly."""
        if isinstance(node, LeafNode):
            return {node.producer}
        if node.producers in taps:
            return set()
        return sourced(node.left) | sourced(node.right)

    # Pinned producer sources.
    needed = sourced(plan.root)
    for producer in query.producers:
        if producer.name not in needed:
            continue
        circuit.add_service(
            Service(
                service_id=f"{circuit.name}/src:{producer.name}",
                spec=ServiceSpec.relay(),
                pinned_node=producer.node,
                producers=frozenset((producer.name,)),
            )
        )

    counter = 0

    def build(node: PlanNode) -> tuple[str, float]:
        """Recursively add services; return (service_id, output_rate)."""
        nonlocal counter
        if isinstance(node, LeafNode):
            sid = f"{circuit.name}/src:{node.producer}"
            return sid, effective.rate(node.producer)
        assert isinstance(node, JoinNode)
        tap = taps.get(node.producers)
        if tap is not None:
            sid = f"{circuit.name}/tap{counter}"
            counter += 1
            circuit.add_service(
                Service(
                    service_id=sid,
                    spec=ServiceSpec.relay(),
                    pinned_node=tap,
                    producers=node.producers,
                )
            )
            return sid, node.output_rate(effective)
        left_id, left_rate = build(node.left)
        right_id, right_rate = build(node.right)
        sid = f"{circuit.name}/join{counter}"
        counter += 1
        circuit.add_service(
            Service(
                service_id=sid,
                spec=ServiceSpec.join(),
                pinned_node=None,
                producers=node.producers,
            )
        )
        circuit.add_link(left_id, sid, left_rate)
        circuit.add_link(right_id, sid, right_rate)
        return sid, node.output_rate(effective)

    tail_id, tail_rate = build(plan.root)

    if query.aggregate_factor is not None:
        agg_id = f"{circuit.name}/agg"
        circuit.add_service(
            Service(
                service_id=agg_id,
                spec=ServiceSpec.aggregate(),
                pinned_node=None,
                producers=plan.producers,
            )
        )
        circuit.add_link(tail_id, agg_id, tail_rate)
        tail_id, tail_rate = agg_id, tail_rate * query.aggregate_factor

    sink_id = f"{circuit.name}/sink:{query.consumer.name}"
    circuit.add_service(
        Service(
            service_id=sink_id,
            spec=ServiceSpec.relay(),
            pinned_node=query.consumer.node,
            producers=plan.producers,
        )
    )
    circuit.add_link(tail_id, sink_id, tail_rate)
    return circuit


# -- inputs -------------------------------------------------------------------

NUM_NODES = 50


@st.composite
def queries(draw):
    """A query of 2–6 producers with filters, an aggregate and taps."""
    count = draw(st.integers(min_value=2, max_value=6))
    names = [f"P{i}" for i in range(count)]
    node = st.integers(min_value=0, max_value=NUM_NODES - 1)
    filters = {
        producer: draw(st.floats(min_value=0.05, max_value=1.0))
        for producer in names
        if draw(st.booleans())
    }
    aggregate = draw(st.one_of(st.none(), st.floats(min_value=0.05, max_value=1.0)))
    query = QuerySpec(
        name="q",
        producers=[Producer(name, draw(node), rate=1.0) for name in names],
        consumer=Consumer("C", draw(node)),
        filters=filters,
        aggregate_factor=aggregate,
    )
    seed = draw(st.integers(min_value=0, max_value=1 << 16))
    stats = Statistics.random(names, seed=seed)
    # Producer sets of size >= 2 (the whole query included) tapped at a node.
    subsets = st.frozensets(st.sampled_from(names), min_size=2)
    taps = draw(st.dictionaries(subsets, node, max_size=3))
    return query, stats, taps


def candidate_plans(query: QuerySpec, stats: Statistics) -> list[LogicalPlan]:
    names = query.producer_names
    if len(names) <= 5:
        return enumerate_all_plans(names)
    return top_k_plans(names, stats, k=8)


def assert_same_circuit(got: Circuit, want: Circuit) -> None:
    assert got.name == want.name
    assert list(got.services) == list(want.services)
    assert list(got.services.values()) == list(want.services.values())
    assert [(l.source, l.target) for l in got.links] == [
        (l.source, l.target) for l in want.links
    ]
    assert [l.rate for l in got.links] == [l.rate for l in want.links]
    assert list(got.placement.items()) == list(want.placement.items())


# -- properties ---------------------------------------------------------------


@given(queries(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_from_plans_and_from_plan_equal_the_reference(case, tapped):
    query, stats, taps = case
    taps = taps if tapped else None
    plans = candidate_plans(query, stats)
    compiled = Circuit.from_plans(plans, query, stats, taps=taps)
    assert len(compiled) == len(plans)
    for plan, circuit in zip(plans, compiled):
        want = reference_from_plan(plan, query, stats, taps=taps)
        assert_same_circuit(circuit, want)
        assert_same_circuit(Circuit.from_plan(plan, query, stats, taps=taps), want)


@given(queries())
@settings(max_examples=25, deadline=None)
def test_relaxation_places_both_compiles_bit_for_bit(case):
    query, stats, _ = case
    plans = candidate_plans(query, stats)[:6]
    rng = np.random.default_rng(len(plans))
    vectors = rng.uniform(-100.0, 100.0, size=(NUM_NODES, 3))
    for plan, circuit in zip(plans, Circuit.from_plans(plans, query, stats, name="n")):
        want = reference_from_plan(plan, query, stats, name="n")
        pinned = {sid: vectors[circuit.placement[sid]] for sid in circuit.pinned_ids()}
        got_placed = relaxation_placement(circuit, pinned)
        want_placed = relaxation_placement(want, pinned)
        assert (got_placed.iterations, got_placed.converged) == (
            want_placed.iterations,
            want_placed.converged,
        )
        assert placement_energy(circuit, {**pinned, **got_placed.positions}) == (
            placement_energy(want, {**pinned, **want_placed.positions})
        )
        for sid, position in want_placed.positions.items():
            assert np.array_equal(got_placed.positions[sid], position)


def test_a_plan_of_other_producers_is_refused_before_any_compile():
    query = QuerySpec(
        "q", [Producer("A", 0, 1.0), Producer("B", 1, 1.0)], Consumer("C", 2)
    )
    stats = Statistics({"A": 1.0, "B": 2.0})
    good = enumerate_all_plans(["A", "B"])[0]
    other = LogicalPlan(JoinNode(LeafNode("A"), LeafNode("Z")))
    with pytest.raises(ValueError, match="different producers"):
        Circuit.from_plans([good, other], query, stats)
