"""Executed streams: validate the optimizer's prices on live tuples.

The optimizer prices circuits from *estimated* rates; this example
optimizes the paper's Figure 1 query both ways (integrated and
two-step), then runs each circuit alone on the data plane — Poisson
sources, windowed joins, latency-delayed delivery — and shows that the
network really carries what the cost model said it would, and that the
integrated circuit really moves less data.

Run:
    python examples/executed_streams.py
"""

from __future__ import annotations

from repro.core.costs import GroundTruthEvaluator
from repro.core.optimizer import IntegratedOptimizer, TwoStepOptimizer
from repro.query.selectivity import Statistics
from repro.runtime import DataPlane, RuntimeConfig
from repro.sbon.overlay import Overlay
from repro.workloads.scenarios import figure1_scenario

TICKS = 2000


def main() -> None:
    sc = figure1_scenario()
    # Scale selectivities up (preserving their ordering, so the
    # two-step optimizer still takes the cross-cluster bait) so the
    # deep links carry statistically meaningful traffic.
    stats = Statistics(
        dict(sc.stats.rates),
        {pair: min(1.0, 5 * sel) for pair, sel in sc.stats.selectivities.items()},
    )
    judge = GroundTruthEvaluator(sc.latencies)

    for label, optimizer in (
        ("integrated", IntegratedOptimizer(sc.cost_space)),
        ("two-step", TwoStepOptimizer(sc.cost_space)),
    ):
        result = optimizer.optimize(sc.query, stats)
        circuit = result.circuit
        estimated = judge.evaluate(circuit).network_usage
        print(f"\n=== {label}: {result.plan}")
        print(f"estimated usage: {estimated:9.1f}")

        overlay = Overlay(sc.latencies, sc.cost_space)
        overlay.install_circuit(circuit)
        plane = DataPlane(overlay, RuntimeConfig(window=20, seed=42))
        records = [plane.step() for _ in range(TICKS)]
        measured = plane.measured_usage_rate()
        delivered = plane.accounting()["delivered"]
        latency = sum(r.latency_p50 * r.delivered for r in records) / max(delivered, 1)
        print(f"measured usage : {measured:9.1f} "
              f"(ratio {measured / estimated:.3f})")
        print(f"results delivered: {delivered} ({delivered / TICKS:.2f}/tick), "
              f"delivery-weighted tick-median latency {latency:.0f} ms")
        print("per-link measured vs estimated rates:")
        links = plane.link_stats()
        for link in sorted(circuit.links, key=lambda l: (l.source, l.target)):
            rate = links[(circuit.name, link.source, link.target)]["rate"]
            bar = "#" * min(40, int(rate * 2))
            print(f"  {link.source:14s} -> {link.target:14s} "
                  f"{rate:7.2f} vs {link.rate:7.2f}  {bar}")

    print(
        "\nThe cost model holds on executed tuples, and the integrated "
        "circuit moves less real data than the two-step circuit."
    )


if __name__ == "__main__":
    main()
