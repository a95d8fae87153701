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
"""

from __future__ import annotations

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

    def evaluate(self, circuit: Circuit, load_weight: float = 1.0) -> CircuitCost:
        """Price a fully placed circuit."""
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


def _evaluate(
    circuit: Circuit,
    latency_fn: Callable[[int, int], float],
    penalty_fn: Callable[[int], float],
    load_weight: float,
) -> CircuitCost:
    # Each link is priced once; both reductions read the same hops.
    hops = _link_latencies(circuit, latency_fn)
    usage = _usage(circuit, hops)
    latency = _path_delay(circuit, hops)
    # Count each distinct hosting node once, but only for unpinned
    # services — pinned endpoints are not a placement choice.
    unpinned_hosts = {
        circuit.host_of(sid) for sid in circuit.unpinned_ids()
    }
    penalty = sum(penalty_fn(node) for node in unpinned_hosts)
    return CircuitCost(
        network_usage=usage,
        consumer_latency=latency,
        load_penalty=penalty,
        total=usage + load_weight * penalty,
    )


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

    def evaluate(self, circuit: Circuit, load_weight: float = 1.0) -> CircuitCost:
        return _evaluate(circuit, self.latency, self.node_penalty, load_weight)


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

    def evaluate(self, circuit: Circuit, load_weight: float = 1.0) -> CircuitCost:
        return _evaluate(circuit, self.latency, self.node_penalty, load_weight)
