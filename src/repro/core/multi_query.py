"""Multi-query optimization with cost-space pruning (§3.4).

With many concurrent circuits, a new query could in principle reuse any
existing service, making the search space explode.  The paper's
proposal: *prune by cost-space locality* — only services hosted within
a radius ``r`` of a new service's desired coordinate are considered for
reuse ("if a circuit only has pinned services in the US, it is unlikely
that reusing existing services in Japan will minimize overall cost").

The optimizer here implements that proposal end to end:

1. Optimize the new query stand-alone (integrated optimization) to get
   each unpinned service's desired coordinate.
2. For each join subtree (largest first), search deployed services with
   a matching *reuse key* (same kind, same producer set → same output
   stream) within radius ``r`` of the subtree service's coordinate.
3. Rewrite the plan: a reused subtree is replaced by a pinned *tap* on
   the existing service's host — its upstream data flow already exists
   and costs the new circuit nothing.
4. Re-place the remaining unpinned services and keep the rewrite iff it
   prices below the stand-alone circuit.

Instrumentation reports the candidates examined (vs. total deployed),
which is the complexity-reduction claim of Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.circuit import Circuit
from repro.core.costs import CircuitCost, CostEvaluator, CostSpaceEvaluator
from repro.core.cost_space import CostSpace
from repro.core.optimizer import (
    IntegratedOptimizer,
    OptimizationResult,
    pinned_vector_positions,
)
from repro.core.physical_mapping import CatalogMapper, ExhaustiveMapper, map_circuit
from repro.core.virtual_placement import relaxation_placement
from repro.query.model import QuerySpec
from repro.query.operators import ServiceKind
from repro.query.plan import JoinNode, LeafNode, PlanNode
from repro.query.selectivity import Statistics

__all__ = ["DeployedService", "MultiQueryResult", "MultiQueryOptimizer"]


@dataclass(frozen=True)
class DeployedService:
    """A reusable service instance running somewhere in the SBON."""

    circuit_name: str
    service_id: str
    node: int
    kind: ServiceKind
    producers: frozenset[str]
    output_rate: float

    def reuse_key(self) -> tuple[ServiceKind, frozenset[str]]:
        return (self.kind, self.producers)


@dataclass
class MultiQueryResult:
    """Outcome of reuse-aware optimization of one query.

    Attributes:
        standalone: the no-reuse integrated optimization result.
        circuit: the final (possibly rewritten) placed circuit.
        cost: final circuit cost.
        reused: deployed services tapped by the final circuit.
        candidates_examined: deployed services inspected inside the
            pruning radius, summed over all lookups.
        total_deployed: deployed services in the whole SBON (what an
            unpruned optimizer would have to consider per lookup).
        savings: standalone cost minus final cost (>= 0).
    """

    standalone: OptimizationResult
    circuit: Circuit
    cost: CircuitCost
    reused: list[DeployedService] = field(default_factory=list)
    candidates_examined: int = 0
    total_deployed: int = 0

    @property
    def savings(self) -> float:
        return self.standalone.cost.total - self.cost.total

    @property
    def reuse_happened(self) -> bool:
        return bool(self.reused)


class MultiQueryOptimizer:
    """Reuse-aware integrated optimizer over a population of circuits.

    Also acts as the deployment registry: :meth:`deploy` records a
    placed circuit's unpinned services as reusable, and :meth:`optimize`
    prices new queries against that state.

    Reuse-key semantics: two JOIN services over the same producer set
    compute the same logical stream under the shared statistics model,
    so they are mergeable (§2.2).  Queries with private filters should
    use distinct producer names to opt out.
    """

    def __init__(
        self,
        cost_space: CostSpace,
        radius: float,
        mapper: ExhaustiveMapper | CatalogMapper | None = None,
        evaluator: CostEvaluator | None = None,
        placement_fn=relaxation_placement,
        load_weight: float = 1.0,
        directory=None,
    ):
        if radius < 0:
            raise ValueError("radius must be non-negative")
        self.cost_space = cost_space
        self.radius = radius
        #: optional :class:`repro.dht.directory.ServiceDirectory` — when
        #: set, reuse search goes through the decentralized Hilbert/Chord
        #: directory instead of the in-process registry (§3.4's "Hilbert
        #: DHT" implementation).
        self.directory = directory
        self.mapper = mapper or ExhaustiveMapper(cost_space)
        self.evaluator = evaluator or CostSpaceEvaluator(cost_space)
        self.placement_fn = placement_fn
        self.load_weight = load_weight
        self.deployed: list[DeployedService] = []
        self._integrated = IntegratedOptimizer(
            cost_space,
            mapper=self.mapper,
            evaluator=self.evaluator,
            placement_fn=placement_fn,
            load_weight=load_weight,
        )

    # -- registry ----------------------------------------------------------

    def deploy(self, result: OptimizationResult) -> None:
        """Record a placed circuit's unpinned services as reusable.

        Link rates already reflect the owning query's effective
        statistics, so the registry needs nothing beyond the circuit.
        """
        circuit = result.circuit
        for sid in circuit.unpinned_ids():
            service = circuit.services[sid]
            out_links = circuit.output_links(sid)
            output_rate = out_links[0].rate if out_links else 0.0
            deployed = DeployedService(
                circuit_name=circuit.name,
                service_id=sid,
                node=circuit.host_of(sid),
                kind=service.kind,
                producers=service.producers,
                output_rate=output_rate,
            )
            self.deployed.append(deployed)
            if self.directory is not None:
                from repro.dht.directory import ServiceAdvertisement

                self.directory.publish(
                    ServiceAdvertisement(
                        circuit_name=deployed.circuit_name,
                        service_id=deployed.service_id,
                        node=deployed.node,
                        reuse_key=(deployed.kind, deployed.producers),
                        coordinate=tuple(
                            self.cost_space.full_matrix()[deployed.node]
                        ),
                        output_rate=output_rate,
                    )
                )

    def undeploy(self, circuit_name: str) -> None:
        """Remove a circuit's services from the registry (cancellation)."""
        self.deployed = [d for d in self.deployed if d.circuit_name != circuit_name]
        if self.directory is not None:
            self.directory.withdraw(circuit_name)

    # -- reuse search ------------------------------------------------------

    def _within_radius(
        self, target: np.ndarray, key: tuple[ServiceKind, frozenset[str]]
    ) -> tuple[list[DeployedService], int]:
        """Deployed services matching ``key`` within the pruning radius.

        Returns (matches, candidates_examined): every deployed service
        whose host falls inside the ball is *examined*; only those with
        the right key are matches.  With radius = inf this degenerates
        to the unpruned optimizer that inspects everything.

        When a :class:`~repro.dht.directory.ServiceDirectory` is wired
        in, the search is fully decentralized: one DHT lookup plus a
        ring-neighborhood scan around the target's Hilbert key.
        """
        if self.directory is not None:
            ads, examined = self.directory.search(target, key, self.radius)
            matches = [
                DeployedService(
                    circuit_name=ad.circuit_name,
                    service_id=ad.service_id,
                    node=ad.node,
                    kind=ad.reuse_key[0],
                    producers=ad.reuse_key[1],
                    output_rate=ad.output_rate,
                )
                for ad in ads
            ]
            return matches, examined
        if not self.deployed:
            return [], 0
        # One cost-space pass prices the whole registry; per-service
        # distances are then plain array lookups.
        distances = self.cost_space.distances_from(target)
        matches: list[DeployedService] = []
        examined = 0
        for dep in self.deployed:
            if distances[dep.node] <= self.radius:
                examined += 1
                if dep.reuse_key() == key:
                    matches.append(dep)
        return matches, examined

    # -- optimization ------------------------------------------------------

    def optimize(self, query: QuerySpec, stats: Statistics) -> MultiQueryResult:
        """Optimize ``query`` considering reuse of deployed services."""
        standalone = self._integrated.optimize(query, stats)
        result = MultiQueryResult(
            standalone=standalone,
            circuit=standalone.circuit,
            cost=standalone.cost,
            total_deployed=len(self.deployed),
        )
        if not self.deployed:
            return result

        plan = standalone.plan
        scalar_dims = len(self.cost_space.spec.scalar_dimensions)

        # Walk the winning plan top-down; greedily tap the largest
        # reusable subtrees.
        taps: dict[frozenset[str], DeployedService] = {}
        examined_total = 0

        # Desired coordinates come from the standalone virtual placement:
        # service ids are assigned join0, join1, ... in build order, so
        # recover the producers -> position mapping via the circuit.
        position_by_producers: dict[frozenset[str], np.ndarray] = {}
        for sid in standalone.circuit.unpinned_ids():
            service = standalone.circuit.services[sid]
            position_by_producers[service.producers] = (
                standalone.virtual_placement.position_of(sid)
            )

        def visit(node: PlanNode) -> None:
            nonlocal examined_total
            if isinstance(node, LeafNode):
                return
            assert isinstance(node, JoinNode)
            producers = node.producers
            position = position_by_producers.get(producers)
            if position is not None:
                target = np.concatenate([position, np.zeros(scalar_dims)])
                matches, examined = self._within_radius(
                    target, (ServiceKind.JOIN, producers)
                )
                examined_total += examined
                if matches:
                    # Rank only the matched hosts: O(matches) row
                    # lookups, not another full matrix pass.
                    full = self.cost_space.full_matrix()
                    best = min(
                        matches,
                        key=lambda d: float(np.linalg.norm(full[d.node] - target)),
                    )
                    taps[producers] = best
                    return  # whole subtree satisfied; do not recurse
            visit(node.left)
            visit(node.right)

        visit(plan.root)
        result.candidates_examined = examined_total
        if not taps:
            return result

        rewritten = Circuit.from_plan(
            plan,
            query,
            stats,
            name=f"{query.name}+reuse",
            taps={producers: tap.node for producers, tap in taps.items()},
        )
        pinned = pinned_vector_positions(rewritten, self.cost_space)
        placement = self.placement_fn(rewritten, pinned)
        map_circuit(rewritten, placement, self.cost_space, self.mapper)
        cost = self.evaluator.evaluate(rewritten, load_weight=self.load_weight)

        if cost.total < standalone.cost.total:
            result.circuit = rewritten
            result.cost = cost
            result.reused = list(taps.values())
        return result
