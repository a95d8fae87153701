"""Property-based tests for placement and optimizer invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circuit import Circuit
from repro.core.optimizer import (
    IntegratedOptimizer,
    TwoStepOptimizer,
    pinned_vector_positions,
)
from repro.core.virtual_placement import (
    placement_energy,
    relaxation_placement,
)
from repro.query.generator import enumerate_all_plans
from repro.query.model import Consumer, Producer, QuerySpec
from repro.query.selectivity import Statistics
from repro.workloads.scenarios import perfect_cost_space

position = st.tuples(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)


@st.composite
def placement_instances(draw):
    """A random query over a random planted node population."""
    num_nodes = draw(st.integers(min_value=6, max_value=20))
    positions = [draw(position) for _ in range(num_nodes)]
    num_producers = draw(st.integers(min_value=2, max_value=4))
    node_ids = draw(
        st.permutations(range(num_nodes)).map(
            lambda p: list(p[: num_producers + 1])
        )
    )
    seed = draw(st.integers(min_value=0, max_value=1 << 16))
    names = [f"P{i}" for i in range(num_producers)]
    stats = Statistics.random(names, seed=seed)
    producers = [
        Producer(name, node=node, rate=stats.rate(name))
        for name, node in zip(names, node_ids[:-1])
    ]
    query = QuerySpec(
        name="q", producers=producers, consumer=Consumer("C", node=node_ids[-1])
    )
    return positions, query, stats


@given(placement_instances())
@settings(max_examples=40, deadline=None)
def test_relaxation_energy_at_most_endpoint_heuristics(instance):
    # The spring equilibrium's energy must not exceed placing every
    # service at any single pinned endpoint (those are feasible points).
    positions, query, stats = instance
    space = perfect_cost_space(positions)
    plan = enumerate_all_plans(query.producer_names)[0]
    circuit = Circuit.from_plan(plan, query, stats)
    pinned = pinned_vector_positions(circuit, space)
    vp = relaxation_placement(circuit, pinned)
    for anchor in pinned.values():
        candidate = dict(pinned)
        for sid in circuit.unpinned_ids():
            candidate[sid] = np.asarray(anchor, dtype=float)
        energy = placement_energy(circuit, {**pinned, **vp.positions})
        assert energy <= placement_energy(circuit, candidate) + 1e-6


@given(placement_instances())
@settings(max_examples=40, deadline=None)
def test_virtual_positions_inside_pinned_hull_bounding_box(instance):
    # Spring equilibria are convex combinations of anchors, so each
    # coordinate lies within the pinned bounding box.
    positions, query, stats = instance
    space = perfect_cost_space(positions)
    plan = enumerate_all_plans(query.producer_names)[-1]
    circuit = Circuit.from_plan(plan, query, stats)
    pinned = pinned_vector_positions(circuit, space)
    anchors = np.array(list(pinned.values()))
    lows = anchors.min(axis=0) - 1e-6
    highs = anchors.max(axis=0) + 1e-6
    vp = relaxation_placement(circuit, pinned)
    for sid, pos in vp.positions.items():
        assert np.all(pos >= lows) and np.all(pos <= highs)


@given(placement_instances())
@settings(max_examples=25, deadline=None)
def test_integrated_estimate_never_above_two_step(instance):
    positions, query, stats = instance
    space = perfect_cost_space(positions)
    integrated = IntegratedOptimizer(space).optimize(query, stats)
    two_step = TwoStepOptimizer(space).optimize(query, stats)
    assert integrated.cost.total <= two_step.cost.total + 1e-6


@given(placement_instances())
@settings(max_examples=25, deadline=None)
def test_optimizer_output_placement_complete_and_valid(instance):
    positions, query, stats = instance
    space = perfect_cost_space(positions)
    result = IntegratedOptimizer(space).optimize(query, stats)
    assert result.circuit.is_fully_placed()
    for sid, node in result.circuit.placement.items():
        assert 0 <= node < space.num_nodes
