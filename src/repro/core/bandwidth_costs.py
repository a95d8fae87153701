"""Bandwidth-aware circuit pricing (§3.1's "available bandwidth" cost).

:class:`BandwidthAwareEvaluator` extends the ground-truth evaluator
with congestion penalties: a circuit link carrying rate ``r`` over a
node pair whose bottleneck (widest-path) capacity is ``B`` pays an
inflated transit price for the traffic beyond ``utilization_cap * B``.
This steers the integrated optimizer away from saturating thin edge
links without introducing a hard constraint solver.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from repro.core.circuit import Circuit
from repro.core.costs import CircuitCost, GroundTruthEvaluator
from repro.network.bandwidth import BandwidthMatrix
from repro.network.latency import LatencyMatrix

__all__ = ["BandwidthAwareEvaluator"]


class BandwidthAwareEvaluator(GroundTruthEvaluator):
    """Ground-truth pricing plus congestion penalties on thin paths.

    A circuit link carrying rate ``r`` over a pair whose bottleneck
    capacity is ``B`` is congested when ``r > utilization_cap * B``;
    the evaluator adds ``congestion_weight * latency * (r - cap*B)``
    for the excess — the overload data pays an inflated transit price,
    steering placement toward fat paths.
    """

    def __init__(
        self,
        latencies: LatencyMatrix,
        bandwidth: BandwidthMatrix,
        loads: np.ndarray | list[float] | None = None,
        utilization_cap: float = 0.8,
        congestion_weight: float = 4.0,
    ):
        super().__init__(latencies, loads)
        if bandwidth.num_nodes != latencies.num_nodes:
            raise ValueError("bandwidth and latency matrices disagree on size")
        if not 0 < utilization_cap <= 1:
            raise ValueError("utilization_cap must be in (0, 1]")
        if congestion_weight < 0:
            raise ValueError("congestion_weight must be non-negative")
        self.bandwidth = bandwidth
        self.utilization_cap = utilization_cap
        self.congestion_weight = congestion_weight

    def congestion_penalty(self, circuit: Circuit) -> float:
        """Total congestion surcharge of a placed circuit."""
        total = 0.0
        for link in circuit.links:
            u = circuit.host_of(link.source)
            v = circuit.host_of(link.target)
            if u == v:
                continue
            allowed = self.utilization_cap * self.bandwidth.bottleneck(u, v)
            excess = link.rate - allowed
            if excess > 0:
                total += (
                    self.congestion_weight
                    * self.latencies.latency(u, v)
                    * excess
                )
        return total

    def evaluate_many(
        self, circuits: Sequence[Circuit], load_weight: float = 1.0
    ) -> list[CircuitCost]:
        """Ground-truth prices, each total plus its circuit's congestion."""
        bases = super().evaluate_many(circuits, load_weight)
        return [
            replace(base, total=base.total + self.congestion_penalty(circuit))
            for circuit, base in zip(circuits, bases)
        ]
