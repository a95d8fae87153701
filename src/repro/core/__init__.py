"""Core: the paper's contribution — cost spaces and integrated optimization.

Public surface of the cost-space approach:

* cost-space construction (:class:`CostSpaceSpec`, :class:`CostSpace`,
  weighting functions),
* circuits and their cost models,
* virtual placement algorithms and physical-mapping backends,
* the integrated, two-step, and random optimizers,
* multi-query optimization with radius pruning,
* dynamic re-optimization (local migration + full re-planning).
"""

from repro.core.bandwidth_costs import BandwidthAwareEvaluator
from repro.core.circuit import Circuit, CircuitLink, Service, effective_statistics
from repro.core.coordinates import CostCoordinate
from repro.core.cost_space import CostSpace, CostSpaceSpec, ScalarDimension
from repro.core.costs import (
    CircuitCost,
    CostEvaluator,
    CostSpaceEvaluator,
    GroundTruthEvaluator,
    consumer_latency,
    network_usage,
)
from repro.core.load_model import (
    KIND_AGGREGATE,
    KIND_FILTER,
    KIND_JOIN,
    KIND_RELAY,
    LoadModel,
)
from repro.core.multi_query import (
    DeployedService,
    MultiQueryOptimizer,
    MultiQueryResult,
)
from repro.core.optimizer import (
    CandidateOutcome,
    IntegratedOptimizer,
    OptimizationResult,
    RandomOptimizer,
    TwoStepOptimizer,
    pinned_vector_positions,
)
from repro.core.physical_mapping import (
    CatalogMapper,
    ExhaustiveMapper,
    MappingResult,
    ServiceMapping,
    build_catalog,
    map_circuit,
    map_circuits,
)
from repro.core.precomputed import (
    PlanBook,
    PrecomputedPlansOptimizer,
    perturbed_cost_space,
)
from repro.core.registry import CostSpaceRegistry
from repro.core.reoptimizer import Migration, ReoptimizationReport, Reoptimizer
from repro.core.rewriting import (
    RewriteResult,
    colocated_join_pairs,
    decompose_join,
    recompose_colocated_joins,
    reorder_adjacent_joins,
)
from repro.core.virtual_placement import (
    VirtualPlacement,
    centroid_placement,
    exact_spring_equilibrium,
    gradient_descent_placement,
    placement_energy,
    placement_utilization,
    relaxation_placement,
)
from repro.core.weighting import (
    WeightingFunction,
    exponential,
    linear,
    squared,
    threshold,
    zero,
)

__all__ = [
    "BandwidthAwareEvaluator",
    "Circuit",
    "CircuitLink",
    "Service",
    "effective_statistics",
    "CostCoordinate",
    "CostSpace",
    "CostSpaceSpec",
    "ScalarDimension",
    "CircuitCost",
    "CostEvaluator",
    "CostSpaceEvaluator",
    "GroundTruthEvaluator",
    "consumer_latency",
    "network_usage",
    "KIND_AGGREGATE",
    "KIND_FILTER",
    "KIND_JOIN",
    "KIND_RELAY",
    "LoadModel",
    "DeployedService",
    "MultiQueryOptimizer",
    "MultiQueryResult",
    "CandidateOutcome",
    "IntegratedOptimizer",
    "OptimizationResult",
    "RandomOptimizer",
    "TwoStepOptimizer",
    "pinned_vector_positions",
    "CatalogMapper",
    "ExhaustiveMapper",
    "MappingResult",
    "ServiceMapping",
    "build_catalog",
    "map_circuit",
    "map_circuits",
    "PlanBook",
    "PrecomputedPlansOptimizer",
    "perturbed_cost_space",
    "CostSpaceRegistry",
    "Migration",
    "ReoptimizationReport",
    "Reoptimizer",
    "RewriteResult",
    "colocated_join_pairs",
    "decompose_join",
    "recompose_colocated_joins",
    "reorder_adjacent_joins",
    "VirtualPlacement",
    "centroid_placement",
    "exact_spring_equilibrium",
    "gradient_descent_placement",
    "placement_energy",
    "placement_utilization",
    "relaxation_placement",
    "WeightingFunction",
    "exponential",
    "linear",
    "squared",
    "threshold",
    "zero",
]
