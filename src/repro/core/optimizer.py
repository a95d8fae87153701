"""Integrated and two-step circuit optimizers (§2.3, §3.3).

The **integrated optimizer** implements the paper's proposal: generate a
set of candidate logical plans, *virtually place and physically map
every one of them* in the cost space ("this yields exactly one candidate
circuit per plan, with the cost of the circuit representing the current
node and network state"), and select the cheapest candidate circuit.

The **two-step optimizer** is the classic baseline (§2.3): plan
generation runs first with a network-oblivious cost model (minimize
intermediate rates), producing a single plan; service placement then
does the best it can for that plan.  Figure 1's inefficiency is exactly
the gap between the two.

A **random optimizer** provides the floor: random plan, random hosts.

What a query costs: :meth:`_PlacingOptimizerBase.place_plans` is the
single plan-evaluation loop — it compiles every candidate plan in one
:meth:`Circuit.from_plans <repro.core.circuit.Circuit.from_plans>` call
(what the plans share is built once), virtually places each, maps
**all** candidates' services in one mapper batch
(:func:`~repro.core.physical_mapping.map_circuits`: one catalog round
per query, however many plans) and then prices all circuits in one
``evaluate_many`` batch.
``place_plan`` is its one-plan case.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.circuit import Circuit
from repro.core.costs import CircuitCost, CostEvaluator, CostSpaceEvaluator
from repro.core.cost_space import CostSpace
from repro.core.physical_mapping import (
    CatalogMapper,
    ExhaustiveMapper,
    MappingResult,
    map_circuit,  # noqa: F401 -- bench/ patches this name in this module
    map_circuits,
)
from repro.core.virtual_placement import VirtualPlacement, relaxation_placement
from repro.query.generator import best_plan, enumerate_all_plans, top_k_plans
from repro.query.model import QuerySpec
from repro.query.plan import LogicalPlan
from repro.query.selectivity import Statistics

__all__ = [
    "CandidateOutcome",
    "OptimizationResult",
    "IntegratedOptimizer",
    "TwoStepOptimizer",
    "RandomOptimizer",
    "pinned_vector_positions",
]

#: Full enumeration is used up to this many producers; beyond it the
#: top-k DP provides the candidate set.
FULL_ENUMERATION_LIMIT = 5


def pinned_vector_positions(
    circuit: Circuit, cost_space: CostSpace
) -> dict[str, np.ndarray]:
    """Vector coordinates of a circuit's pinned services.

    Reads rows of the live matrix (copied, so callers own them) instead
    of materialising every :class:`CostCoordinate` of the snapshot.
    """
    vectors = cost_space.vector_matrix()
    return {
        sid: vectors[circuit.services[sid].pinned_node].copy()
        for sid in circuit.pinned_ids()
    }


@dataclass(frozen=True)
class CandidateOutcome:
    """One fully evaluated candidate circuit."""

    plan: LogicalPlan
    cost: CircuitCost

    @property
    def signature(self) -> str:
        return self.plan.signature()


@dataclass
class OptimizationResult:
    """Outcome of optimizing one query.

    Attributes:
        query_name: the optimized query.
        plan: the winning logical plan.
        circuit: the winning circuit, fully placed.
        cost: the winning circuit's (estimated) cost.
        virtual_placement: the winner's virtual placement.
        mapping: the winner's physical mapping (with error stats).
        candidates: every candidate evaluated, in evaluation order.
        placements_evaluated: how many plan placements were computed —
            the optimizer-work metric of the scalability experiments.
    """

    query_name: str
    plan: LogicalPlan
    circuit: Circuit
    cost: CircuitCost
    virtual_placement: VirtualPlacement
    mapping: MappingResult
    candidates: list[CandidateOutcome] = field(default_factory=list)
    placements_evaluated: int = 0


class _PlacingOptimizerBase:
    """Shared machinery: place, map and price a set of candidate plans."""

    def __init__(
        self,
        cost_space: CostSpace,
        mapper: ExhaustiveMapper | CatalogMapper | None = None,
        evaluator: CostEvaluator | None = None,
        placement_fn=relaxation_placement,
        load_weight: float = 1.0,
    ):
        self.cost_space = cost_space
        self.mapper = mapper or ExhaustiveMapper(cost_space)
        self.evaluator = evaluator or CostSpaceEvaluator(cost_space)
        self.placement_fn = placement_fn
        self.load_weight = load_weight

    def place_plans(
        self, plans: Sequence[LogicalPlan], query: QuerySpec, stats: Statistics
    ) -> list[tuple[Circuit, VirtualPlacement, MappingResult, CircuitCost]]:
        """Compile the plans, virtually place each, map them all, price them all.

        Compilation is one :meth:`Circuit.from_plans` call, physical
        mapping one batch and pricing one ``evaluate_many`` call for the
        whole plan set; virtual placement stays one opaque
        ``placement_fn`` call per circuit.
        """
        circuits = Circuit.from_plans(plans, query, stats)
        placements = [
            self.placement_fn(
                circuit, pinned_vector_positions(circuit, self.cost_space)
            )
            for circuit in circuits
        ]
        mappings = map_circuits(circuits, placements, self.cost_space, self.mapper)
        costs = self.evaluator.evaluate_many(circuits, load_weight=self.load_weight)
        return list(zip(circuits, placements, mappings, costs))

    def place_plan(
        self, plan: LogicalPlan, query: QuerySpec, stats: Statistics
    ) -> tuple[Circuit, VirtualPlacement, MappingResult, CircuitCost]:
        """Compile, virtually place, map, and price one plan."""
        return self.place_plans([plan], query, stats)[0]

    def _best_of_plans(
        self,
        plans: Sequence[LogicalPlan],
        query: QuerySpec,
        stats: Statistics,
        refinement_candidates: int = 0,
    ) -> OptimizationResult:
        """Place every plan (one mapper batch) and keep the cheapest circuit.

        Ties keep the earliest plan.  With ``refinement_candidates > 0``
        each mapped circuit is refined (:meth:`refine_placement`) before
        it is compared.
        """
        best: tuple | None = None
        candidates: list[CandidateOutcome] = []
        for plan, (circuit, placement, mapping, cost) in zip(
            plans, self.place_plans(plans, query, stats)
        ):
            if refinement_candidates:
                cost = self.refine_placement(
                    circuit, placement, refinement_candidates
                )
            candidates.append(CandidateOutcome(plan, cost))
            if best is None or cost.total < best[4].total:
                best = (plan, circuit, placement, mapping, cost)
        if best is None:
            raise ValueError("no candidate plans to place")
        plan, circuit, placement, mapping, cost = best
        return OptimizationResult(
            query_name=query.name,
            plan=plan,
            circuit=circuit,
            cost=cost,
            virtual_placement=placement,
            mapping=mapping,
            candidates=candidates,
            placements_evaluated=len(plans),
        )

    def refine_placement(
        self,
        circuit: Circuit,
        placement: VirtualPlacement,
        candidates: int,
    ) -> CircuitCost:
        """Evaluator-guided local search around the mapped placement.

        For each unpinned service, try the ``candidates`` nearest nodes
        to its virtual coordinate (full cost-space distance) and keep a
        reassignment iff the evaluator's total drops.  This lets
        evaluators that know more than the cost space — bandwidth
        constraints, true loads — influence *where* services land, not
        just which plan wins.  With ``candidates=0`` this is a no-op.
        """
        scalar_dims = len(self.cost_space.spec.scalar_dimensions)
        cost = self.evaluator.evaluate(circuit, load_weight=self.load_weight)
        if candidates <= 0:
            return cost
        excluded = getattr(self.mapper, "excluded", set())
        for sid in circuit.unpinned_ids():
            target = np.concatenate(
                [placement.position_of(sid), np.zeros(scalar_dims)]
            )
            distances = self.cost_space.distances_from(target)
            order = np.argsort(distances, kind="stable")
            ranked = [
                int(node) for node in order if int(node) not in excluded
            ][:candidates]
            best_node = circuit.host_of(sid)
            for node in ranked:
                if node == best_node:
                    continue
                circuit.assign(sid, node)
                trial = self.evaluator.evaluate(
                    circuit, load_weight=self.load_weight
                )
                if trial.total < cost.total:
                    cost = trial
                    best_node = node
            circuit.assign(sid, best_node)
        return cost


class IntegratedOptimizer(_PlacingOptimizerBase):
    """Joint plan generation + service placement through the cost space.

    Args:
        cost_space: the shared cost space snapshot.
        mapper: physical-mapping backend (exhaustive by default).
        evaluator: circuit pricing; defaults to cost-space estimates,
            which is what a decentralized deployment would use.
        placement_fn: virtual-placement algorithm (relaxation default).
        max_candidate_plans: cap on candidates from the top-k DP when
            full enumeration is intractable.
        load_weight: weight of the load penalty in the total cost.
    """

    def __init__(
        self,
        cost_space: CostSpace,
        mapper: ExhaustiveMapper | CatalogMapper | None = None,
        evaluator: CostEvaluator | None = None,
        placement_fn=relaxation_placement,
        max_candidate_plans: int = 16,
        load_weight: float = 1.0,
        refinement_candidates: int = 0,
    ):
        super().__init__(cost_space, mapper, evaluator, placement_fn, load_weight)
        if max_candidate_plans < 1:
            raise ValueError("max_candidate_plans must be >= 1")
        if refinement_candidates < 0:
            raise ValueError("refinement_candidates must be >= 0")
        self.max_candidate_plans = max_candidate_plans
        #: when > 0, each candidate circuit's mapping is refined by an
        #: evaluator-guided search over this many nearest nodes per
        #: service (see ``refine_placement``).
        self.refinement_candidates = refinement_candidates

    def candidate_plans(
        self, query: QuerySpec, stats: Statistics
    ) -> list[LogicalPlan]:
        """The candidate set: full enumeration when small, top-k DP else."""
        names = query.producer_names
        if len(names) <= FULL_ENUMERATION_LIMIT:
            return enumerate_all_plans(names)
        return top_k_plans(names, stats, k=self.max_candidate_plans)

    def optimize(self, query: QuerySpec, stats: Statistics) -> OptimizationResult:
        """Full circuit optimization: one placed candidate per plan."""
        return self._best_of_plans(
            self.candidate_plans(query, stats),
            query,
            stats,
            self.refinement_candidates,
        )


class TwoStepOptimizer(_PlacingOptimizerBase):
    """Classic baseline: network-oblivious plan first, placement second.

    Plan generation "without considering node or network state" picks
    the single plan minimizing estimated intermediate rates; placement
    then uses the same cost-space machinery as the integrated optimizer
    (so the comparison isolates the *integration*, not the placement
    quality).
    """

    def optimize(self, query: QuerySpec, stats: Statistics) -> OptimizationResult:
        plan = best_plan(query.producer_names, stats)
        circuit, placement, mapping, cost = self.place_plan(plan, query, stats)
        return OptimizationResult(
            query_name=query.name,
            plan=plan,
            circuit=circuit,
            cost=cost,
            virtual_placement=placement,
            mapping=mapping,
            candidates=[CandidateOutcome(plan, cost)],
            placements_evaluated=1,
        )


class RandomOptimizer(_PlacingOptimizerBase):
    """Floor baseline: random plan, uniformly random hosts."""

    def __init__(
        self,
        cost_space: CostSpace,
        evaluator: CostEvaluator | None = None,
        load_weight: float = 1.0,
        seed: int = 0,
    ):
        super().__init__(
            cost_space, None, evaluator, relaxation_placement, load_weight
        )
        self._rng = random.Random(seed)

    def optimize(self, query: QuerySpec, stats: Statistics) -> OptimizationResult:
        names = query.producer_names
        if len(names) <= FULL_ENUMERATION_LIMIT:
            plans = enumerate_all_plans(names)
        else:
            plans = top_k_plans(names, stats, k=8)
        plan = self._rng.choice(plans)
        circuit = Circuit.from_plan(plan, query, stats)
        for sid in circuit.unpinned_ids():
            circuit.assign(sid, self._rng.randrange(self.cost_space.num_nodes))
        cost = self.evaluator.evaluate(circuit, load_weight=self.load_weight)
        placement = VirtualPlacement({}, 0, True)
        return OptimizationResult(
            query_name=query.name,
            plan=plan,
            circuit=circuit,
            cost=cost,
            virtual_placement=placement,
            mapping=MappingResult(),
            candidates=[CandidateOutcome(plan, cost)],
            placements_evaluated=1,
        )
