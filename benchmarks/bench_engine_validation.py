"""E14 — cost-model validation by execution.

The whole cost-space architecture rests on the planner's rate estimates
being *true of the running system*: circuit links are priced at
``estimated rate × latency``.  This experiment installs each optimized
circuit alone on an overlay and runs it on the data plane (Poisson
sources, windowed joins, latency-delayed delivery), then compares:

  (a) per-link measured vs estimated rates,
  (b) measured vs estimated total network usage,
  (c) whether the *ranking* the optimizer produced (integrated beats
      two-step) survives execution — the end-to-end sanity check.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from _harness import report
from repro.core.costs import GroundTruthEvaluator
from repro.core.optimizer import IntegratedOptimizer, TwoStepOptimizer
from repro.runtime import DataPlane, RuntimeConfig
from repro.sbon.overlay import Overlay
from repro.workloads.scenarios import figure1_scenario

TICKS = 2500


def _validation_stats(sc):
    """Figure 1 statistics with selectivities scaled x5.

    The relative ordering (cross-cluster pairs more selective) is
    preserved, so the two-step bait still works — but every link of the
    4-way plan now carries enough tuples for a statistically meaningful
    rate comparison (the raw Figure 1 sels put the final join output at
    ~1e-4 tuples/tick, i.e. pure Poisson noise over any finite run).
    """
    from repro.query.selectivity import Statistics

    return Statistics(
        dict(sc.stats.rates),
        {pair: min(1.0, 5 * sel) for pair, sel in sc.stats.selectivities.items()},
        sc.stats.default_selectivity,
    )


def _plane(sc, circuit):
    """A data plane executing ``circuit`` alone on a fresh overlay."""
    overlay = Overlay(sc.latencies, sc.cost_space)
    overlay.install_circuit(circuit)
    return DataPlane(overlay, RuntimeConfig(window=20, seed=14))


@lru_cache(maxsize=1)
def validation_results():
    sc = figure1_scenario()
    stats = _validation_stats(sc)
    gt = GroundTruthEvaluator(sc.latencies)
    ratios = []
    usage_rows = []
    for name, optimizer in (
        ("integrated", IntegratedOptimizer(sc.cost_space)),
        ("two-step", TwoStepOptimizer(sc.cost_space)),
    ):
        circuit = optimizer.optimize(sc.query, stats).circuit
        plane = _plane(sc, circuit)
        records = [plane.step() for _ in range(TICKS)]
        measured_links = plane.link_stats()
        for link in circuit.links:
            if link.rate > 0:
                key = (circuit.name, link.source, link.target)
                ratios.append(measured_links[key]["rate"] / link.rate)
        estimated = gt.evaluate(circuit).network_usage
        measured = plane.measured_usage_rate()
        delivered = plane.accounting()["delivered"]
        usage_rows.append(
            [
                name,
                estimated,
                measured,
                measured / max(estimated, 1e-9),
                delivered,
                sum(r.latency_p50 * r.delivered for r in records) / max(delivered, 1),
            ]
        )
    return ratios, usage_rows


def test_report_engine_validation(benchmark):
    sc = figure1_scenario()
    circuit = IntegratedOptimizer(sc.cost_space).optimize(sc.query, sc.stats).circuit

    def fresh_plane():
        return (_plane(sc, circuit),), {}

    def run_200(plane):
        for _ in range(200):
            plane.step()

    # Only the 200 ticks are timed; overlay and compile happen in setup.
    benchmark.pedantic(run_200, setup=fresh_plane, rounds=5)

    ratios, usage_rows = validation_results()
    report(
        "E14a",
        f"Executed vs estimated link rates (Figure 1 circuits, {TICKS} ticks)",
        ["quantity", "value"],
        [
            ["links compared", len(ratios)],
            ["mean measured/estimated rate", float(np.mean(ratios))],
            ["median", float(np.median(ratios))],
            ["worst link", float(max(abs(1 - r) for r in ratios))],
        ],
    )
    report(
        "E14b",
        "Executed vs estimated network usage (per optimizer)",
        ["optimizer", "estimated usage", "measured usage", "ratio",
         "tuples delivered", "delivery-weighted tick-median latency (ms)"],
        usage_rows,
    )
    # Rates realize the model within ~15% per link on average.
    assert abs(np.mean(ratios) - 1.0) < 0.15
    # The optimizer's ranking survives execution: the integrated circuit
    # moves less actual data-ms than the two-step circuit.
    measured = {row[0]: row[2] for row in usage_rows}
    assert measured["integrated"] < measured["two-step"]
