"""Property tests: the iterated spring relaxation agrees with the solve.

``relaxation_placement`` solves the spring equilibrium directly; the
Jacobi loop it replaced (``reference_run`` in
``test_placement_sweep.py``) is the reference it is checked against.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circuit import Circuit
from repro.core.optimizer import pinned_vector_positions
from repro.core.virtual_placement import placement_energy, relaxation_placement
from repro.query.generator import enumerate_all_plans
from repro.query.model import Consumer, Producer, QuerySpec
from repro.query.selectivity import Statistics
from repro.workloads.scenarios import perfect_cost_space
from test_placement_sweep import pinned_spread, reference_run

position = st.tuples(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)


@st.composite
def instances(draw):
    num_producers = draw(st.integers(min_value=2, max_value=4))
    n = num_producers + 1 + draw(st.integers(min_value=1, max_value=5))
    positions = [draw(position) for _ in range(n)]
    seed = draw(st.integers(min_value=0, max_value=1 << 16))
    plan_idx = draw(st.integers(min_value=0, max_value=1 << 10))
    names = [f"P{i}" for i in range(num_producers)]
    stats = Statistics.random(names, seed=seed)
    producers = [
        Producer(name, node=i, rate=stats.rate(name))
        for i, name in enumerate(names)
    ]
    query = QuerySpec(
        name="q", producers=producers, consumer=Consumer("C", node=num_producers)
    )
    return positions, query, stats, plan_idx


@given(instances())
@settings(max_examples=50, deadline=None)
def test_relaxation_converges_to_exact_equilibrium(instance):
    positions, query, stats, plan_idx = instance
    space = perfect_cost_space(positions)
    plans = enumerate_all_plans(query.producer_names)
    plan = plans[plan_idx % len(plans)]
    circuit = Circuit.from_plan(plan, query, stats)
    pinned = pinned_vector_positions(circuit, space)

    exact = relaxation_placement(circuit, pinned)
    iterative = reference_run(circuit, pinned, True, False, 1_000_000, 1e-12, placement_energy)
    assert iterative.converged
    bound = 1e-6 * pinned_spread(pinned)
    for sid, exact_pos in exact.positions.items():
        gap = float(np.linalg.norm(exact_pos - iterative.position_of(sid)))
        assert gap <= bound


@given(instances())
@settings(max_examples=50, deadline=None)
def test_exact_equilibrium_is_a_local_minimum(instance):
    positions, query, stats, plan_idx = instance
    space = perfect_cost_space(positions)
    plans = enumerate_all_plans(query.producer_names)
    plan = plans[plan_idx % len(plans)]
    circuit = Circuit.from_plan(plan, query, stats)
    pinned = pinned_vector_positions(circuit, space)
    exact = relaxation_placement(circuit, pinned)

    base = dict(pinned)
    base.update(exact.positions)
    base_energy = placement_energy(circuit, base)
    rng = np.random.default_rng(0)
    for sid in exact.positions:
        for _ in range(4):
            nudged = {k: v.copy() for k, v in base.items()}
            nudged[sid] = nudged[sid] + rng.normal(0, 0.5, size=2)
            assert placement_energy(circuit, nudged) >= base_energy - 1e-6
