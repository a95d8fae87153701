"""Pre-computed dynamic plans baseline (§2.3, after Graefe & Ward).

The paper discusses an earlier approach to network-aware optimization:
"pre-calculate and store plans and sub-plans in the database ... each
plan is generated with a different set of network assumptions.  Then,
when an expected query is issued, the optimizer examines current
network state and tries to find the pre-computed plan that best matches
current conditions.  This approach is limited in that the optimizer
must guess which future node and network states are relevant."

This module implements that baseline so the limitation can be measured
(ablation E11): at *compile time* the optimizer draws K perturbed
snapshots of the cost space (guessed futures), runs integrated
optimization under each, and stores the distinct winning plans.  At
*run time* it may only place plans from that stored set — if the true
conditions drifted somewhere no guess anticipated, the best current
plan may simply not be on the menu.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field

import numpy as np

from repro.core.cost_space import CostSpace
from repro.core.costs import CostEvaluator, CostSpaceEvaluator
from repro.core.optimizer import (
    IntegratedOptimizer,
    OptimizationResult,
    _PlacingOptimizerBase,
)
from repro.core.physical_mapping import CatalogMapper, ExhaustiveMapper
from repro.core.virtual_placement import relaxation_placement
from repro.query.model import QuerySpec
from repro.query.plan import LogicalPlan
from repro.query.selectivity import Statistics

__all__ = ["PlanBook", "PrecomputedPlansOptimizer", "perturbed_cost_space"]


def perturbed_cost_space(
    space: CostSpace,
    vector_sigma: float,
    load_sigma: float,
    seed: int,
) -> CostSpace:
    """A guessed future: jitter vector coords and scalar metrics.

    ``vector_sigma`` is relative to the space's span; scalar components
    are re-randomized around their current magnitude.
    """
    rng = np.random.default_rng(seed)
    vectors = space.vector_matrix()
    span = float(np.linalg.norm(vectors.max(axis=0) - vectors.min(axis=0)))
    noise = rng.normal(0.0, vector_sigma * max(span, 1e-9), size=vectors.shape)
    guessed = copy.deepcopy(space)
    guessed.update_vectors(vectors + noise)
    if space.spec.scalar_dimensions:
        # Guess a fresh load pattern of comparable magnitude.
        loads = np.clip(rng.normal(0.3, load_sigma, size=space.num_nodes), 0, 1)
        guessed.update_metrics({space.spec.scalar_dimensions[0].metric: loads})
    return guessed


@dataclass
class PlanBook:
    """The stored plans for one query, keyed by signature."""

    query_name: str
    plans: dict[str, LogicalPlan] = field(default_factory=dict)

    def add(self, plan: LogicalPlan) -> None:
        self.plans[plan.signature()] = plan

    def __len__(self) -> int:
        return len(self.plans)

    def __iter__(self):
        return iter(self.plans.values())


class PrecomputedPlansOptimizer(_PlacingOptimizerBase):
    """Graefe-Ward-style baseline: choose among pre-stored plans only.

    Args:
        cost_space: the *current* cost space used at run time.
        num_assumptions: how many guessed futures to compile against.
        vector_sigma: relative magnitude of the guessed latency drift.
        load_sigma: spread of the guessed load patterns.
        seed: determinism for the guesses.
        (mapper / evaluator / placement_fn / load_weight as elsewhere.)
    """

    def __init__(
        self,
        cost_space: CostSpace,
        num_assumptions: int = 4,
        vector_sigma: float = 0.05,
        load_sigma: float = 0.2,
        seed: int = 0,
        mapper: ExhaustiveMapper | CatalogMapper | None = None,
        evaluator: CostEvaluator | None = None,
        placement_fn=relaxation_placement,
        load_weight: float = 1.0,
    ):
        super().__init__(cost_space, mapper, evaluator, placement_fn, load_weight)
        if num_assumptions < 1:
            raise ValueError("num_assumptions must be >= 1")
        self.num_assumptions = num_assumptions
        self.vector_sigma = vector_sigma
        self.load_sigma = load_sigma
        self._seed = seed
        self._books: dict[str, PlanBook] = {}

    # -- compile time ------------------------------------------------------

    def compile(self, query: QuerySpec, stats: Statistics) -> PlanBook:
        """Pre-compute plans for ``query`` under guessed network futures.

        Each guess is a perturbed copy of the *compile-time* cost space;
        the integrated optimizer picks a plan under that guess, and the
        distinct winners form the plan book.
        """
        book = PlanBook(query_name=query.name)
        rng = random.Random(self._seed)
        for k in range(self.num_assumptions):
            guessed = perturbed_cost_space(
                self.cost_space,
                vector_sigma=self.vector_sigma,
                load_sigma=self.load_sigma,
                seed=rng.randrange(1 << 30),
            )
            optimizer = IntegratedOptimizer(
                guessed,
                mapper=ExhaustiveMapper(guessed),
                evaluator=CostSpaceEvaluator(guessed),
                placement_fn=self.placement_fn,
                load_weight=self.load_weight,
            )
            book.add(optimizer.optimize(query, stats).plan)
        self._books[query.name] = book
        return book

    def book_for(self, query_name: str) -> PlanBook:
        if query_name not in self._books:
            raise KeyError(f"query {query_name} was never compiled")
        return self._books[query_name]

    # -- run time ----------------------------------------------------------

    def optimize(self, query: QuerySpec, stats: Statistics) -> OptimizationResult:
        """Place every stored plan under *current* conditions; keep the best.

        Raises if the query was never compiled — the baseline only works
        for "common anticipated queries", exactly the limitation the
        paper points out.
        """
        return self._best_of_plans(list(self.book_for(query.name)), query, stats)
