"""Unit tests for the integrated / two-step / random optimizers."""

import numpy as np
import pytest

from repro.core.costs import GroundTruthEvaluator
from repro.core.optimizer import (
    IntegratedOptimizer,
    RandomOptimizer,
    TwoStepOptimizer,
    pinned_vector_positions,
)
from repro.core.physical_mapping import CatalogMapper, ExhaustiveMapper, build_catalog
from repro.query.generator import count_all_plans
from repro.workloads.queries import WorkloadParams, random_query
from repro.workloads.scenarios import figure1_scenario, perfect_cost_space, planted_latency_matrix


class TestIntegratedOptimizer:
    def test_fig1_integrated_beats_two_step(self):
        sc = figure1_scenario()
        gt = GroundTruthEvaluator(sc.latencies)
        ri = IntegratedOptimizer(sc.cost_space).optimize(sc.query, sc.stats)
        rt = TwoStepOptimizer(sc.cost_space).optimize(sc.query, sc.stats)
        true_i = gt.evaluate(ri.circuit).network_usage
        true_t = gt.evaluate(rt.circuit).network_usage
        assert true_i < true_t
        # The winning integrated plan pairs intra-cluster producers.
        internals = ri.plan.root.internal_nodes()
        first_joins = {frozenset(n.producers) for n in internals if len(n.producers) == 2}
        assert frozenset({"P1", "P2"}) in first_joins
        assert frozenset({"P3", "P4"}) in first_joins

    def test_all_candidates_evaluated(self):
        sc = figure1_scenario()
        result = IntegratedOptimizer(sc.cost_space).optimize(sc.query, sc.stats)
        assert result.placements_evaluated == count_all_plans(4) == 15
        assert len(result.candidates) == 15

    def test_winner_is_min_candidate(self):
        sc = figure1_scenario()
        result = IntegratedOptimizer(sc.cost_space).optimize(sc.query, sc.stats)
        best = min(c.cost.total for c in result.candidates)
        assert result.cost.total == pytest.approx(best)

    def test_circuit_fully_placed(self):
        sc = figure1_scenario()
        result = IntegratedOptimizer(sc.cost_space).optimize(sc.query, sc.stats)
        assert result.circuit.is_fully_placed()

    def test_large_query_uses_topk(self):
        positions = [(float(i), 0.0) for i in range(30)]
        space = perfect_cost_space(positions)
        query, stats = random_query(
            30, WorkloadParams(num_producers=7), seed=3
        )
        opt = IntegratedOptimizer(space, max_candidate_plans=6)
        result = opt.optimize(query, stats)
        assert 1 <= result.placements_evaluated <= 6
        assert result.circuit.is_fully_placed()

    def test_max_candidate_plans_validated(self):
        sc = figure1_scenario()
        with pytest.raises(ValueError):
            IntegratedOptimizer(sc.cost_space, max_candidate_plans=0)


class TestTwoStepOptimizer:
    def test_considers_exactly_one_plan(self):
        sc = figure1_scenario()
        result = TwoStepOptimizer(sc.cost_space).optimize(sc.query, sc.stats)
        assert result.placements_evaluated == 1
        assert len(result.candidates) == 1

    def test_plan_is_oblivious_optimum(self):
        sc = figure1_scenario()
        result = TwoStepOptimizer(sc.cost_space).optimize(sc.query, sc.stats)
        from repro.query.generator import best_plan

        assert result.plan.signature() == best_plan(
            sc.query.producer_names, sc.stats
        ).signature()


class TestRandomOptimizer:
    def test_produces_valid_circuit(self):
        sc = figure1_scenario()
        result = RandomOptimizer(sc.cost_space, seed=1).optimize(sc.query, sc.stats)
        assert result.circuit.is_fully_placed()

    def test_deterministic_given_seed(self):
        sc = figure1_scenario()
        a = RandomOptimizer(sc.cost_space, seed=5).optimize(sc.query, sc.stats)
        b = RandomOptimizer(sc.cost_space, seed=5).optimize(sc.query, sc.stats)
        assert a.circuit.placement == b.circuit.placement

    def test_random_not_better_than_integrated(self):
        sc = figure1_scenario()
        gt = GroundTruthEvaluator(sc.latencies)
        integ = IntegratedOptimizer(sc.cost_space).optimize(sc.query, sc.stats)
        rand_costs = [
            gt.evaluate(
                RandomOptimizer(sc.cost_space, seed=s).optimize(sc.query, sc.stats).circuit
            ).network_usage
            for s in range(5)
        ]
        integ_cost = gt.evaluate(integ.circuit).network_usage
        assert integ_cost <= min(rand_costs) + 1e-9


class TestInvariantAcrossRandomInstances:
    def test_integrated_never_worse_than_two_step_estimate(self):
        # Under the same evaluator the integrated optimizer considers a
        # superset of the two-step optimizer's candidates, so its chosen
        # estimated cost can never be higher.
        rng_positions = np.random.default_rng(0).uniform(0, 100, size=(25, 2))
        space = perfect_cost_space([tuple(p) for p in rng_positions])
        for seed in range(8):
            query, stats = random_query(25, seed=seed)
            ri = IntegratedOptimizer(space).optimize(query, stats)
            rt = TwoStepOptimizer(space).optimize(query, stats)
            assert ri.cost.total <= rt.cost.total + 1e-9


class TestPlacementRefinement:
    def test_refinement_never_increases_estimated_cost(self):
        sc = figure1_scenario()
        base = IntegratedOptimizer(sc.cost_space).optimize(sc.query, sc.stats)
        refined = IntegratedOptimizer(
            sc.cost_space, refinement_candidates=6
        ).optimize(sc.query, sc.stats)
        assert refined.cost.total <= base.cost.total + 1e-9

    def test_zero_refinement_is_default_behaviour(self):
        sc = figure1_scenario()
        a = IntegratedOptimizer(sc.cost_space).optimize(sc.query, sc.stats)
        b = IntegratedOptimizer(
            sc.cost_space, refinement_candidates=0
        ).optimize(sc.query, sc.stats)
        assert a.circuit.placement == b.circuit.placement

    def test_negative_refinement_rejected(self):
        sc = figure1_scenario()
        with pytest.raises(ValueError):
            IntegratedOptimizer(sc.cost_space, refinement_candidates=-1)

    def test_refinement_respects_mapper_exclusions(self):
        sc = figure1_scenario()
        from repro.core.physical_mapping import ExhaustiveMapper

        excluded = {5, 6, 7, 8}
        mapper = ExhaustiveMapper(sc.cost_space, excluded=excluded)
        result = IntegratedOptimizer(
            sc.cost_space, mapper=mapper, refinement_candidates=8
        ).optimize(sc.query, sc.stats)
        for sid in result.circuit.unpinned_ids():
            assert result.circuit.host_of(sid) not in excluded


def _reference_optimize(optimizer, query, stats):
    """The integrated optimizer as a loop of one-plan rounds."""
    best = None
    candidates = []
    for plan in optimizer.candidate_plans(query, stats):
        circuit, placement, mapping, cost = optimizer.place_plan(plan, query, stats)
        if optimizer.refinement_candidates:
            cost = optimizer.refine_placement(
                circuit, placement, optimizer.refinement_candidates
            )
        candidates.append((plan.signature(), cost))
        if best is None or cost.total < best[2].total:
            best = (plan, circuit, cost, mapping)
    return best, candidates


class TestOneMapperBatchPerQuery:
    """optimize() maps all candidate plans at once; the answer is the
    per-plan loop's, field for field."""

    @pytest.mark.parametrize("refinement", [0, 2])
    @pytest.mark.parametrize("backend", ["exhaustive", "catalog"])
    @pytest.mark.parametrize("producers", [3, 4])
    def test_optimize_equals_per_plan_rounds(self, producers, backend, refinement):
        rng = np.random.default_rng(producers)
        positions = [tuple(p) for p in rng.uniform(0, 100, size=(40, 2))]
        space = perfect_cost_space(positions, list(rng.uniform(0, 0.8, size=40)))
        excluded = {1, 17, 30}
        if backend == "exhaustive":
            mapper = ExhaustiveMapper(space, excluded=excluded)
        else:
            mapper = CatalogMapper(
                space, build_catalog(space, bits=8, ring_size=16), 4, excluded
            )
        optimizer = IntegratedOptimizer(
            space, mapper=mapper, refinement_candidates=refinement
        )
        for seed in range(4):
            query, stats = random_query(
                40, WorkloadParams(num_producers=producers), seed=seed
            )
            result = optimizer.optimize(query, stats)
            (plan, circuit, cost, mapping), candidates = _reference_optimize(
                optimizer, query, stats
            )
            assert result.plan.signature() == plan.signature()
            assert result.circuit.placement == circuit.placement
            assert result.cost == cost
            assert [(c.signature, c.cost) for c in result.candidates] == candidates
            assert result.placements_evaluated == len(candidates)
            assert result.mapping.total_dht_hops == mapping.total_dht_hops
            assert [m.mapping_error for m in result.mapping.mappings] == [
                m.mapping_error for m in mapping.mappings
            ]

    def test_one_map_coordinates_call_per_query(self):
        sc = figure1_scenario()
        mapper = ExhaustiveMapper(sc.cost_space)
        batches = []
        original = mapper.map_coordinates
        mapper.map_coordinates = lambda targets: (
            batches.append(len(targets)) or original(targets)
        )
        IntegratedOptimizer(sc.cost_space, mapper=mapper).optimize(sc.query, sc.stats)
        assert batches == [45]  # 15 plans x 3 joins

    def test_failed_query_raises_before_placing_any_candidate(self):
        sc = figure1_scenario()
        num_nodes = sc.cost_space.num_nodes
        mapper = CatalogMapper(
            sc.cost_space,
            build_catalog(sc.cost_space),
            excluded=set(range(num_nodes)),
        )
        with pytest.raises(RuntimeError, match="no eligible published nodes"):
            IntegratedOptimizer(sc.cost_space, mapper=mapper).optimize(
                sc.query, sc.stats
            )


class TestPerQueryPathsReadRows:
    """The ``CostSpace`` rule: a per-query path reads matrix rows and
    never materialises the snapshot's :class:`CostCoordinate` views."""

    def test_optimize_after_refresh_builds_no_coordinates(self):
        rng = np.random.default_rng(3)
        positions = [tuple(p) for p in rng.uniform(0, 100, size=(30, 2))]
        space = perfect_cost_space(positions, list(rng.uniform(0, 0.8, size=30)))
        space.update_metrics({"cpu_load": rng.uniform(0, 0.8, size=30)})
        query, stats = random_query(30, WorkloadParams(num_producers=4), seed=1)
        IntegratedOptimizer(space).optimize(query, stats)
        assert space._coord_cache is None

    def test_pinned_positions_are_owned_copies_of_rows(self):
        sc = figure1_scenario()
        circuit = IntegratedOptimizer(sc.cost_space).optimize(sc.query, sc.stats).circuit
        positions = pinned_vector_positions(circuit, sc.cost_space)
        assert set(positions) == set(circuit.pinned_ids())
        live = sc.cost_space.vector_matrix()
        for sid, position in positions.items():
            node = circuit.services[sid].pinned_node
            np.testing.assert_array_equal(
                position, sc.cost_space.coordinate(node).vector_array()
            )
            assert position.flags.writeable
            assert not np.shares_memory(position, live)
