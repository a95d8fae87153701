"""repro — cost-space distributed query optimization for stream overlays.

A from-scratch reproduction of *"A Cost-Space Approach to Distributed
Query Optimization in Stream Based Overlays"* (Shneidman, Pietzuch,
Welsh, Seltzer, Roussopoulos — ICDE 2005), including every substrate
the paper relies on: transit-stub topologies, Vivaldi/landmark network
coordinates, a Hilbert-curve Chord catalog, stream query plan
generation, and a tick-driven SBON simulator.

Quickstart::

    from repro import Overlay, transit_stub_topology
    from repro.workloads import random_query

    topo = transit_stub_topology(seed=1)
    overlay = Overlay.build(topo, vector_dims=2, seed=1)
    query, stats = random_query(overlay.num_nodes, seed=1)
    result = overlay.integrated_optimizer().optimize(query, stats)
    print(result.plan, result.cost.total)

See ``ROADMAP.md`` for the architecture and open directions and
``bench/README.md`` for the end-to-end benchmark's workloads and
metrics.
"""

from repro.core import (
    CatalogMapper,
    Circuit,
    CircuitCost,
    CostCoordinate,
    CostSpace,
    CostSpaceEvaluator,
    CostSpaceSpec,
    ExhaustiveMapper,
    GroundTruthEvaluator,
    IntegratedOptimizer,
    MultiQueryOptimizer,
    OptimizationResult,
    RandomOptimizer,
    Reoptimizer,
    ScalarDimension,
    TwoStepOptimizer,
    build_catalog,
    centroid_placement,
    gradient_descent_placement,
    map_circuit,
    map_circuits,
    relaxation_placement,
    squared,
)
from repro.network import (
    LatencyMatrix,
    Topology,
    VivaldiSystem,
    embed_latency_matrix,
    random_geometric_topology,
    transit_stub_topology,
)
from repro.query import (
    Consumer,
    LogicalPlan,
    Producer,
    QuerySpec,
    Statistics,
    enumerate_all_plans,
    top_k_plans,
)
from repro.runtime import DataPlane, RuntimeConfig
from repro.sbon import Overlay, Simulation, SimulationConfig

__version__ = "1.0.0"

__all__ = [
    "CatalogMapper",
    "Circuit",
    "CircuitCost",
    "CostCoordinate",
    "CostSpace",
    "CostSpaceEvaluator",
    "CostSpaceSpec",
    "ExhaustiveMapper",
    "GroundTruthEvaluator",
    "IntegratedOptimizer",
    "MultiQueryOptimizer",
    "OptimizationResult",
    "RandomOptimizer",
    "Reoptimizer",
    "ScalarDimension",
    "TwoStepOptimizer",
    "build_catalog",
    "centroid_placement",
    "gradient_descent_placement",
    "map_circuit",
    "map_circuits",
    "relaxation_placement",
    "squared",
    "LatencyMatrix",
    "Topology",
    "VivaldiSystem",
    "embed_latency_matrix",
    "random_geometric_topology",
    "transit_stub_topology",
    "Consumer",
    "LogicalPlan",
    "Producer",
    "QuerySpec",
    "Statistics",
    "enumerate_all_plans",
    "top_k_plans",
    "DataPlane",
    "RuntimeConfig",
    "Overlay",
    "Simulation",
    "SimulationConfig",
    "__version__",
]
