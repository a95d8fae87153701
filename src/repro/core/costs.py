"""Circuit cost models: estimated (cost-space) and actual (ground truth).

The paper's placement objective is *network utilization* — "the amount
of data in transit in the network" (§3.2) — which for a placed circuit
is ``Σ over links of rate × latency(host(src), host(dst))``.  Secondary
metrics: the consumer's data latency (longest producer→consumer path
delay, the metric behind Figure 1's "total data latency") and a load
penalty from the scalar dimensions.

Two evaluators implement the same interface:

* :class:`CostSpaceEvaluator` — what the *optimizer* sees: latency is
  estimated by vector distance in the cost space, load by scalar
  penalties.  Decentralized and cheap, but approximate.
* :class:`GroundTruthEvaluator` — what the *network* actually does:
  latency from the true latency matrix, load from the true load vector.
  Benchmarks report this one.

Both price a batch of circuits in one pass (``evaluate_many``: every
link's hosts gathered into two index arrays and priced by one array
call); ``evaluate`` is its one-circuit case.  The batch is bit-equal to
pricing each circuit link by link.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from repro.core.circuit import Circuit
from repro.core.cost_space import CostSpace
from repro.core.weighting import WeightingFunction, squared
from repro.network.latency import LatencyMatrix

__all__ = [
    "CircuitCost",
    "CostEvaluator",
    "CostSpaceEvaluator",
    "GroundTruthEvaluator",
    "network_usage",
    "consumer_latency",
]


@dataclass(frozen=True)
class CircuitCost:
    """Cost breakdown of a fully placed circuit.

    Attributes:
        network_usage: Σ rate × latency over links (primary objective).
        consumer_latency: worst-case source→sink path delay.
        load_penalty: Σ of (weighted) load over hosting nodes.
        total: scalarized objective the optimizer minimizes.
    """

    network_usage: float
    consumer_latency: float
    load_penalty: float
    total: float

    def __lt__(self, other: "CircuitCost") -> bool:
        return self.total < other.total


class CostEvaluator(Protocol):
    """Anything that can price a placed circuit."""

    def latency(self, u: int, v: int) -> float:
        """Latency (actual or estimated) between two physical nodes."""
        ...

    def node_penalty(self, node: int) -> float:
        """Scalar (load) penalty of hosting on ``node``."""
        ...

    def latency_array(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Batched :meth:`latency` over parallel node-index arrays."""
        ...

    def penalty_array(self, nodes: np.ndarray) -> np.ndarray:
        """Batched :meth:`node_penalty` over a node-index array."""
        ...

    def evaluate_many(
        self, circuits: Sequence[Circuit], load_weight: float = 1.0
    ) -> list[CircuitCost]:
        """Price fully placed circuits, one batch for all of them."""
        ...

    def evaluate(self, circuit: Circuit, load_weight: float = 1.0) -> CircuitCost:
        """Price a fully placed circuit (the one-circuit batch)."""
        ...


def _link_latencies(
    circuit: Circuit, latency_fn: Callable[[int, int], float]
) -> list[float]:
    """Hop latency of every circuit link, in link order (0.0 when co-hosted)."""
    if not circuit.is_fully_placed():
        raise ValueError(f"circuit {circuit.name} is not fully placed")
    hops = []
    for link in circuit.links:
        u = circuit.host_of(link.source)
        v = circuit.host_of(link.target)
        hops.append(0.0 if u == v else latency_fn(u, v))
    return hops


def _usage(circuit: Circuit, hops: list[float]) -> float:
    """:func:`network_usage` over already-priced links."""
    total = 0.0
    for link, hop in zip(circuit.links, hops):
        total += link.rate * hop
    return total


def _path_delay(circuit: Circuit, hops: list[float]) -> float:
    """:func:`consumer_latency` over already-priced links."""
    delay: dict[str, float] = {}

    incoming: dict[str, list[tuple[str, float]]] = {sid: [] for sid in circuit.services}
    for link, hop in zip(circuit.links, hops):
        incoming[link.target].append((link.source, hop))

    def arrival(sid: str) -> float:
        if sid in delay:
            return delay[sid]
        worst = 0.0
        for source, hop in incoming[sid]:
            worst = max(worst, arrival(source) + hop)
        delay[sid] = worst
        return worst

    return max((arrival(sid) for sid in circuit.sink_ids()), default=0.0)


def network_usage(circuit: Circuit, latency_fn: Callable[[int, int], float]) -> float:
    """Σ rate × latency over all circuit links (requires full placement)."""
    return _usage(circuit, _link_latencies(circuit, latency_fn))


def consumer_latency(circuit: Circuit, latency_fn: Callable[[int, int], float]) -> float:
    """Longest source→sink path delay through the placed circuit.

    Computed by dynamic programming over the (acyclic) link graph:
    the arrival delay at a service is the max over its inputs of
    (input's delay + link latency).
    """
    return _path_delay(circuit, _link_latencies(circuit, latency_fn))


def _evaluate_many(
    circuits: Sequence[Circuit],
    hops_of: Callable[[np.ndarray, np.ndarray], np.ndarray],
    penalties_of: Callable[[list[int]], list[float]],
    load_weight: float,
) -> list[CircuitCost]:
    """Price every circuit: each link once, all links in one gather.

    ``hops_of(u, v)`` prices parallel host arrays (a co-hosted link is
    0.0) and ``penalties_of(nodes)`` returns one float per node.  Every
    reduction runs per circuit in the order a one-circuit pricing uses:
    usage adds ``rate · hop`` in link order, the path delay is the
    :func:`consumer_latency` DP, and the load penalty is the builtin
    ``sum`` over the circuit's distinct unpinned hosts, in set order.
    """
    sources: list[int] = []
    targets: list[int] = []
    host_sets: list[list[int]] = []
    for circuit in circuits:
        if not circuit.is_fully_placed():
            raise ValueError(f"circuit {circuit.name} is not fully placed")
        host = circuit.placement
        for link in circuit.links:
            sources.append(host[link.source])
            targets.append(host[link.target])
        # Count each distinct hosting node once, but only for unpinned
        # services — pinned endpoints are not a placement choice.
        host_sets.append(list({host[sid] for sid in circuit.unpinned_ids()}))
    u = np.array(sources, dtype=np.intp)
    v = np.array(targets, dtype=np.intp)
    hops = np.where(u == v, 0.0, hops_of(u, v)).tolist()
    penalties = penalties_of([node for hosts in host_sets for node in hosts])

    costs = []
    link_start = host_start = 0
    for circuit, hosts in zip(circuits, host_sets):
        link_end = link_start + len(circuit.links)
        host_end = host_start + len(hosts)
        circuit_hops = hops[link_start:link_end]
        usage = _usage(circuit, circuit_hops)
        penalty = sum(penalties[host_start:host_end])
        costs.append(
            CircuitCost(
                network_usage=usage,
                consumer_latency=_path_delay(circuit, circuit_hops),
                load_penalty=penalty,
                total=usage + load_weight * penalty,
            )
        )
        link_start, host_start = link_end, host_end
    return costs


class CostSpaceEvaluator:
    """Prices circuits using only cost-space information (decentralized)."""

    def __init__(self, cost_space: CostSpace):
        self.cost_space = cost_space

    def latency(self, u: int, v: int) -> float:
        return self.cost_space.vector_distance(u, v)

    def node_penalty(self, node: int) -> float:
        return self.cost_space.scalar_penalty(node)

    def latency_array(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        vectors = self.cost_space.vector_matrix()
        diff = vectors[u] - vectors[v]
        np.multiply(diff, diff, out=diff)
        return np.sqrt(diff.sum(axis=1))

    def penalty_array(self, nodes: np.ndarray) -> np.ndarray:
        return self.cost_space.scalar_penalties()[nodes]

    def evaluate_many(
        self, circuits: Sequence[Circuit], load_weight: float = 1.0
    ) -> list[CircuitCost]:
        """Hops by :meth:`CostSpace.vector_distances`, penalties from its cache."""
        return _evaluate_many(
            circuits,
            self.cost_space.vector_distances,
            lambda nodes: self.cost_space.scalar_penalties()[nodes].tolist(),
            load_weight,
        )

    def evaluate(self, circuit: Circuit, load_weight: float = 1.0) -> CircuitCost:
        return self.evaluate_many([circuit], load_weight)[0]


class GroundTruthEvaluator:
    """Prices circuits with true latencies and loads (the benchmark judge).

    Args:
        latencies: the real all-pairs latency matrix.
        loads: per-node true CPU loads in [0, 1] (optional).
        load_weighting: weighting applied to raw loads for the penalty
            term; defaults to the paper's squared function so estimated
            and actual penalties are commensurable.
    """

    def __init__(
        self,
        latencies: LatencyMatrix,
        loads: np.ndarray | list[float] | None = None,
        load_weighting: WeightingFunction | None = None,
    ):
        self.latencies = latencies
        if loads is None:
            loads = np.zeros(latencies.num_nodes)
        self.loads = np.asarray(loads, dtype=float)
        if self.loads.shape != (latencies.num_nodes,):
            raise ValueError("loads must have one entry per node")
        self.load_weighting = load_weighting or squared()

    def latency(self, u: int, v: int) -> float:
        return self.latencies.latency(u, v)

    def node_penalty(self, node: int) -> float:
        return self.load_weighting(float(self.loads[node]))

    def latency_array(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.latencies.values[u, v]

    def penalty_array(self, nodes: np.ndarray) -> np.ndarray:
        return self.load_weighting.apply_array(self.loads[nodes])

    def evaluate_many(
        self, circuits: Sequence[Circuit], load_weight: float = 1.0
    ) -> list[CircuitCost]:
        """Hops read from the latency matrix, penalties by :meth:`node_penalty`.

        Not :meth:`penalty_array`: a weighting's array form may round
        differently from its scalar form (``np.exp`` vs ``math.exp``).
        """
        return _evaluate_many(
            circuits,
            lambda u, v: self.latencies.values[u, v],
            lambda nodes: [self.node_penalty(node) for node in nodes],
            load_weight,
        )

    def evaluate(self, circuit: Circuit, load_weight: float = 1.0) -> CircuitCost:
        return self.evaluate_many([circuit], load_weight)[0]
