"""The lockstep accept sweep against the per-circuit accept loop it replaced.

:meth:`Reoptimizer.step_all` decides the *j*-th unpinned service of
every circuit in the arena at once (:meth:`_ReoptArena.sweep`).
``reference_pass`` below is the per-circuit loop that sweep replaced,
kept here verbatim as a decision reference: one ``_accept_pass`` call
per circuit against a total priced circuit by circuit.  Both run on the
same candidates, so every migration, placement and counter must agree;
cost floats are bit-equal wherever a circuit's unpinned services sit on
at most two distinct hosts (the distinct-host penalty sum is then
order-free) and within 1e-12 elsewhere.
"""

import numpy as np
import pytest

from repro.core.circuit import Circuit, Service
from repro.core.cost_space import CostSpace, CostSpaceSpec
from repro.core.costs import CostSpaceEvaluator
from repro.core.reoptimizer import (
    Migration,
    ReoptimizationReport,
    Reoptimizer,
    _ReoptArena,
    refresh_kernel_rates,
)
from repro.core.rewriting import replicate_operator
from repro.query.operators import ServiceSpec

# -- the decision reference ---------------------------------------------------


def _accept_pass(
    reopt, circuit, kernel, hosts, candidates, old_usage, new_usage, current_total
):
    """Sequential accept/revert sweep of one circuit (the replaced loop).

    Returns the migrations and the number of services whose incident
    slice was re-priced because a neighbor moved first.
    """
    migrations = []
    repriced = 0
    moved = np.zeros(len(hosts), dtype=bool)
    m = len(kernel.unpinned_sids)
    inc_lo = np.searchsorted(kernel.inc_seg, np.arange(m), side="left")
    inc_hi = np.searchsorted(kernel.inc_seg, np.arange(m), side="right")

    occupancy: dict[int, int] = {}
    for node in hosts[kernel.unpinned_rows]:
        occupancy[int(node)] = occupancy.get(int(node), 0) + 1
    involved = np.unique(np.concatenate((hosts[kernel.unpinned_rows], candidates)))
    penalty_of = dict(
        zip((int(n) for n in involved), reopt.evaluator.penalty_array(involved))
    )

    frozen = reopt.frozen
    for k, sid in enumerate(kernel.unpinned_sids):
        row = kernel.unpinned_rows[k]
        old_node = int(hosts[row])
        candidate = int(candidates[k])
        if candidate == old_node:
            continue
        if frozen and (circuit.name, sid) in frozen:
            continue
        lo, hi = inc_lo[k], inc_hi[k]
        if moved[kernel.inc_nbr[lo:hi]].any():
            repriced += 1
            nbr_hosts = hosts[kernel.inc_nbr[lo:hi]]
            rates = kernel.inc_rates[lo:hi]
            delta_usage = float(
                np.dot(
                    rates,
                    reopt.evaluator.latency_array(
                        np.full(hi - lo, candidate), nbr_hosts
                    ),
                )
                - np.dot(
                    rates,
                    reopt.evaluator.latency_array(
                        np.full(hi - lo, old_node), nbr_hosts
                    ),
                )
            )
        else:
            delta_usage = float(new_usage[k] - old_usage[k])
        delta_penalty = 0.0
        if occupancy.get(candidate, 0) == 0:
            delta_penalty += penalty_of[candidate]
        if occupancy[old_node] == 1:
            delta_penalty -= penalty_of[old_node]
        new_total = current_total + delta_usage + reopt.load_weight * delta_penalty
        if new_total < current_total * (1 - reopt.migration_threshold):
            hosts[row] = candidate
            moved[row] = True
            occupancy[old_node] -= 1
            occupancy[candidate] = occupancy.get(candidate, 0) + 1
            circuit.assign(sid, candidate)
            migrations.append(
                Migration(sid, old_node, candidate, current_total, new_total)
            )
            current_total = new_total
            reopt.accepts += 1
        else:
            reopt.rejects += 1
    return migrations, repriced


def reference_pass(reopt, circuits):
    """One local pass with per-circuit totals and per-circuit accept loops.

    Returns the reports and the number of re-priced (conflicted) moves.
    """
    reports = [ReoptimizationReport() for _ in circuits]
    kernels, hosts_list, active = reopt._collect_active(circuits)
    if not active:
        return reports, 0
    arena = _ReoptArena(kernels)
    ghosts = np.concatenate(hosts_list)
    candidates, _ = reopt.mapper.map_coordinates(reopt._target_coords(arena, ghosts))
    old_usage, new_usage = arena.speculative_usage(ghosts, candidates, reopt.evaluator)
    link_lat = reopt.evaluator.latency_array(
        ghosts[arena.link_src], ghosts[arena.link_dst]
    )
    repriced = 0
    for idx, (kernel, hosts, i) in enumerate(zip(kernels, hosts_list, active)):
        l0, l1 = arena.link_offsets[idx], arena.link_offsets[idx + 1]
        usage = float(np.dot(kernel.link_rates, link_lat[l0:l1]))
        distinct = list({int(h) for h in hosts[kernel.unpinned_rows]})
        penalty = float(reopt.evaluator.penalty_array(np.asarray(distinct)).sum())
        s0, s1 = arena.seg_offsets[idx], arena.seg_offsets[idx + 1]
        reports[i].migrations, conflicts = _accept_pass(
            reopt,
            circuits[i],
            kernel,
            hosts,
            candidates[s0:s1],
            old_usage[s0:s1],
            new_usage[s0:s1],
            usage + reopt.load_weight * penalty,
        )
        repriced += conflicts
    return reports, repriced


# -- inputs ----------------------------------------------------------------------


def make_space(seed: int, n: int = 48) -> CostSpace:
    rng = np.random.default_rng(seed)
    spec = CostSpaceSpec.latency_load(vector_dims=2)
    embedding = rng.uniform(-80.0, 80.0, size=(n, 2))
    loads = rng.uniform(0.0, 1.0, size=n)
    return CostSpace.from_embedding(spec, embedding, {"cpu_load": loads})


def chain_circuit(rng: np.random.Generator, n: int, name: str) -> Circuit:
    """The ``closed_loop`` shape: 3 producers, 2 joins, 1 consumer, 5 links."""
    circuit = Circuit(name=name)
    for a in range(3):
        circuit.add_service(
            Service(
                f"{name}/p{a}",
                ServiceSpec.relay(),
                int(rng.integers(n)),
                frozenset((f"P{a}",)),
            )
        )
    circuit.add_service(
        Service(f"{name}/out", ServiceSpec.relay(), int(rng.integers(n)), frozenset())
    )
    circuit.add_service(
        Service(f"{name}/j0", ServiceSpec.join(), None, frozenset(("P0", "P1")))
    )
    circuit.add_service(
        Service(f"{name}/j1", ServiceSpec.join(), None, frozenset(("P0", "P1", "P2")))
    )
    for source, target in (
        ("p0", "j0"),
        ("p1", "j0"),
        ("j0", "j1"),
        ("p2", "j1"),
        ("j1", "out"),
    ):
        circuit.add_link(
            f"{name}/{source}", f"{name}/{target}", float(rng.uniform(0.5, 8.0))
        )
    scatter(circuit, rng, n)
    return circuit


def scatter(circuit: Circuit, rng: np.random.Generator, n: int) -> None:
    for sid in circuit.unpinned_ids():
        circuit.assign(sid, int(rng.integers(n)))


def pinned_circuit(rng: np.random.Generator, n: int, name: str) -> Circuit:
    """A circuit with no unpinned service: nothing for a pass to decide."""
    circuit = Circuit(name=name)
    circuit.add_service(
        Service(f"{name}/p", ServiceSpec.relay(), int(rng.integers(n)), frozenset("P"))
    )
    circuit.add_service(
        Service(f"{name}/out", ServiceSpec.relay(), int(rng.integers(n)), frozenset())
    )
    circuit.add_link(f"{name}/p", f"{name}/out", 2.0)
    return circuit


def chains(seed: int, count: int, n: int = 48) -> list[Circuit]:
    rng = np.random.default_rng(seed)
    return [chain_circuit(rng, n, f"c{i}") for i in range(count)]


def ragged(seed: int, n: int = 48) -> list[Circuit]:
    """Replicated chains at k = 1..8: many sweep steps, many link counts."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(1, 9):
        circuit = chain_circuit(rng, n, f"k{k}")
        if k > 1:
            circuit = replicate_operator(circuit, f"k{k}/j0", k).circuit
            if k % 3 == 0:
                circuit = replicate_operator(circuit, f"k{k}/j1", k // 3 + 1).circuit
        scatter(circuit, rng, n)
        out.append(circuit)
    return out


def twins(space, circuits, **kwargs):
    """(sweep, reference) reoptimizers with their own circuit copies."""
    pairs = []
    for _ in range(2):
        reopt = Reoptimizer(space, kernel_cache={}, **kwargs)
        pairs.append((reopt, [c.copy() for c in circuits]))
    return pairs


def distinct_hosts(circuit: Circuit) -> int:
    return len({circuit.host_of(sid) for sid in circuit.unpinned_ids()})


def assert_same_pass(sweep, reference, circuits_before):
    """Migrations, placements and counters equal; cost floats as promised."""
    (ra, ca, reps_a), (rb, cb, reps_b) = sweep, reference
    assert len(reps_a) == len(reps_b)
    for pa, pb, circuit in zip(reps_a, reps_b, circuits_before):
        assert [(m.service_id, m.from_node, m.to_node) for m in pa.migrations] == [
            (m.service_id, m.from_node, m.to_node) for m in pb.migrations
        ]
        exact = distinct_hosts(circuit) <= 2
        for ma, mb in zip(pa.migrations, pb.migrations):
            assert type(ma.cost_before) is float and type(ma.to_node) is int
            for x, y in ((ma.cost_before, mb.cost_before), (ma.cost_after, mb.cost_after)):
                if exact:
                    assert x == y
                else:
                    assert x == pytest.approx(y, rel=1e-12)
    for a, b in zip(ca, cb):
        assert a.placement == b.placement
    assert (ra.accepts, ra.rejects) == (rb.accepts, rb.rejects)


def run_both(space, circuits, passes=3, frozen=(), **kwargs):
    """Run ``passes`` sweep and reference passes side by side."""
    (ra, ca), (rb, cb) = twins(space, circuits, **kwargs)
    ra.frozen = set(frozen)
    rb.frozen = set(frozen)
    moved = repriced = 0
    for _ in range(passes):
        before = [c.copy() for c in ca]
        reps_a = ra.step_all(ca)
        reps_b, conflicts = reference_pass(rb, cb)
        assert_same_pass((ra, ca, reps_a), (rb, cb, reps_b), before)
        moved += sum(len(r.migrations) for r in reps_a)
        repriced += conflicts
    return moved, repriced, ra


# -- the sweep against the reference ------------------------------------------


class TestSweepMatchesReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_closed_loop_shape(self, seed):
        space = make_space(seed)
        moved, _, reopt = run_both(space, chains(seed, 40), migration_threshold=0.02)
        assert moved > 0
        assert reopt.arena_builds == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_ragged_arena(self, seed):
        space = make_space(seed + 10)
        circuits = ragged(seed)
        assert max(distinct_hosts(c) for c in circuits) >= 3
        moved, _, _ = run_both(space, circuits, migration_threshold=0.01)
        assert moved > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_frozen_services(self, seed):
        space = make_space(seed + 20)
        circuits = ragged(seed + 5) + chains(seed + 5, 6)
        rng = np.random.default_rng(seed)
        frozen = {
            (c.name, sid)
            for c in circuits
            for sid in c.unpinned_ids()
            if rng.random() < 0.3
        }
        frozen.add(("no-such-circuit", "x"))
        positions = {
            c.unpinned_ids().index(sid)
            for c in circuits
            for name, sid in frozen
            if name == c.name
        }
        assert len(positions) > 2
        moved, _, _ = run_both(space, circuits, frozen=frozen, migration_threshold=0.0)
        assert moved > 0

    def test_circuit_without_unpinned_services(self):
        space = make_space(30)
        rng = np.random.default_rng(30)
        circuits = chains(30, 3)
        circuits.insert(1, pinned_circuit(rng, space.num_nodes, "pinned"))
        circuits.append(pinned_circuit(rng, space.num_nodes, "pinned2"))
        moved, _, _ = run_both(space, circuits, migration_threshold=0.0)
        assert moved > 0
        (reopt, only_pinned), _ = twins(space, circuits[1:2])
        assert reopt.step_all(only_pinned)[0].migrations == []

    @pytest.mark.parametrize("seed", range(6))
    def test_arena_of_one(self, seed):
        space = make_space(seed + 40)
        circuit = (ragged(seed) + chains(seed, 1))[seed % 9]
        (ra, (ca,)), (rb, (cb,)) = twins(space, [circuit], migration_threshold=0.0)
        before = ca.copy()
        report = ra.local_step(ca)
        reps_b, _ = reference_pass(rb, [cb])
        assert_same_pass((ra, [ca], [report]), (rb, [cb], reps_b), [before])

    @pytest.mark.parametrize("seed", range(4))
    def test_conflict_heavy(self, seed):
        # Threshold 0 and neighbouring joins both off their optimum:
        # later services re-price against neighbors that moved first.
        space = make_space(seed + 50)
        _, repriced, _ = run_both(
            space, chains(seed, 30) + ragged(seed), migration_threshold=0.0
        )
        assert repriced > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_rate_links(self, seed):
        space = make_space(seed + 60)
        circuits = chains(seed, 12) + ragged(seed)
        (ra, ca), (rb, cb) = twins(space, circuits, migration_threshold=0.0)
        scalar = Reoptimizer(space, migration_threshold=0.0)
        cs = [c.copy() for c in circuits]
        # One pass at the compiled rates caches the arena and kernels.
        before = [c.copy() for c in ca]
        reps_b, _ = reference_pass(rb, cb)
        assert_same_pass((ra, ca, ra.step_all(ca)), (rb, cb, reps_b), before)
        scalar.step_all_scalar(cs)
        for reopt, group in ((ra, ca), (rb, cb), (scalar, cs)):
            for circuit in group:
                zeros = np.zeros(len(circuit.links))
                circuit.set_link_rates(zeros)
                refresh_kernel_rates(reopt._kernels, circuit, zeros)
        before = [c.copy() for c in ca]
        reps_a = ra.step_all(ca)
        reps_b, _ = reference_pass(rb, cb)
        reps_s = scalar.step_all_scalar(cs)
        assert_same_pass((ra, ca, reps_a), (rb, cb, reps_b), before)
        evaluator = CostSpaceEvaluator(space)
        for pa, ps, circuit in zip(reps_a, reps_s, before):
            assert [(m.service_id, m.to_node) for m in pa.migrations] == [
                (m.service_id, m.to_node) for m in ps.migrations
            ]
            for ma, ms in zip(pa.migrations, ps.migrations):
                assert ma.cost_before == pytest.approx(ms.cost_before, rel=1e-9)
                assert ma.cost_after == pytest.approx(ms.cost_after, rel=1e-9)
            if pa.migrations:
                # Zero-rate links carry no usage: a total is the penalty alone.
                cost = evaluator.evaluate(circuit)
                assert cost.network_usage == 0.0
                assert pa.migrations[0].cost_before == pytest.approx(
                    cost.load_penalty, rel=1e-12
                )
        assert sum(len(r.migrations) for r in reps_a) > 0
        for a, s in zip(ca, cs):
            assert a.placement == s.placement


# -- evaluator calls do not grow with the arena ------------------------------


class CountingEvaluator(CostSpaceEvaluator):
    def __init__(self, space):
        super().__init__(space)
        self.calls = {"latency_array": 0, "penalty_array": 0}

    def latency_array(self, u, v):
        self.calls["latency_array"] += 1
        return super().latency_array(u, v)

    def penalty_array(self, nodes):
        self.calls["penalty_array"] += 1
        return super().penalty_array(nodes)


class TestPassCallCount:
    def test_four_circuits_cost_the_calls_of_forty(self):
        space = make_space(70, n=64)
        counts = []
        for count in (4, 40):
            evaluator = CountingEvaluator(space)
            reopt = Reoptimizer(space, evaluator=evaluator, migration_threshold=0.0)
            reopt.step_all(chains(70, count, n=64))
            counts.append(dict(evaluator.calls))
        small, large = counts
        assert small["penalty_array"] == large["penalty_array"] <= 2
        # Two speculative sweeps and one link sweep, plus one re-pricing
        # pair per (step, slice length) group: 2 steps, all slices of 3.
        for calls in counts:
            assert 3 <= calls["latency_array"] <= 3 + 2 * (2 * 1)
