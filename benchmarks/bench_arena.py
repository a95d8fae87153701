"""E21 — the global circuit arena: dispatch scaling.

Every installed circuit's compiled arrays live in one global CSR arena,
so a tick runs a constant number of array kernels regardless of how
many circuits are installed.  This benchmark pins that claim as a
floor: the per-circuit cost of one traffic tick at ``HI_CIRCUITS``
circuits is at most 3x the per-circuit cost at ``LO_CIRCUITS``
circuits — per-tick Python dispatch does not grow with the circuit
count.

Set ``BENCH_QUICK=1`` for the small CI smoke sizes.
"""

from __future__ import annotations

import os
import time
from functools import lru_cache

import numpy as np

from _harness import report, write_bench_json
from repro.core.circuit import Circuit, Service
from repro.core.cost_space import CostSpace, CostSpaceSpec
from repro.network.latency import LatencyMatrix
from repro.query.operators import ServiceSpec
from repro.runtime.dataplane import DataPlane, RuntimeConfig
from repro.sbon.overlay import Overlay

QUICK = os.environ.get("BENCH_QUICK", "") == "1"

#: Node count of the dispatch-scaling overlays.
ARENA_NODES = 120 if QUICK else 1000
#: Circuit counts for the sublinear-dispatch comparison.
LO_CIRCUITS, HI_CIRCUITS = (20, 100) if QUICK else (100, 1000)
JOINS = 1
WARMUP_TICKS = 3 if QUICK else 5
TIMED_TICKS = 3
#: Per-circuit tick cost at HI may be at most this multiple of LO's.
SUBLINEAR_CEILING = 3.0


def _make_overlay(n: int, num_circuits: int, joins: int = JOINS, seed: int = 0) -> Overlay:
    """A planted overlay carrying ``num_circuits`` random join chains.

    Same construction as the E18 traffic overlay: Euclidean substrate
    latencies on a random plane, join chains with uniform source rates
    and decaying internal rates.  Identical seeds build identical twins.
    """
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 200.0, size=(n, 2))
    diff = points[:, None, :] - points[None, :, :]
    latencies = LatencyMatrix(np.sqrt((diff ** 2).sum(axis=-1)))
    spec = CostSpaceSpec.latency_load(vector_dims=2)
    space = CostSpace.from_embedding(spec, points, {"cpu_load": np.zeros(n)})
    overlay = Overlay(latencies, space)
    for c in range(num_circuits):
        circuit = Circuit(name=f"c{c}")
        producers = rng.choice(n, size=joins + 1, replace=False)
        for a, node in enumerate(producers):
            circuit.add_service(
                Service(f"c{c}/p{a}", ServiceSpec.relay(), int(node), frozenset((f"P{a}",)))
            )
        prev = f"c{c}/p0"
        prev_rate = float(rng.uniform(4.0, 10.0))
        for j in range(joins):
            sid = f"c{c}/j{j}"
            circuit.add_service(
                Service(sid, ServiceSpec.join(), None, frozenset((f"P{j}", f"X{j}")))
            )
            other_rate = float(rng.uniform(4.0, 10.0))
            circuit.add_link(prev, sid, prev_rate)
            circuit.add_link(f"c{c}/p{j + 1}", sid, other_rate)
            circuit.assign(sid, int(rng.integers(n)))
            prev = sid
            prev_rate = float(rng.uniform(0.3, 0.8)) * min(prev_rate, other_rate)
        sink = f"c{c}/sink"
        circuit.add_service(
            Service(sink, ServiceSpec.relay(), int(rng.integers(n)), frozenset(("ALL",)))
        )
        circuit.add_link(prev, sink, prev_rate)
        overlay.install_circuit(circuit)
    return overlay


@lru_cache(maxsize=1)
def tick_scaling_timings() -> dict[int, float]:
    """Mean traffic-tick seconds at LO_CIRCUITS and HI_CIRCUITS."""
    times: dict[int, float] = {}
    for count in (LO_CIRCUITS, HI_CIRCUITS):
        plane = DataPlane(_make_overlay(ARENA_NODES, count, seed=3), RuntimeConfig(seed=3))
        for _ in range(WARMUP_TICKS):
            plane.step()
        t0 = time.perf_counter()
        for _ in range(TIMED_TICKS):
            plane.step()
        times[count] = (time.perf_counter() - t0) / TIMED_TICKS
        assert plane.accounting()["balanced"]
    return times


def test_tick_dispatch_is_sublinear():
    times = tick_scaling_timings()
    per_lo = times[LO_CIRCUITS] / LO_CIRCUITS
    per_hi = times[HI_CIRCUITS] / HI_CIRCUITS
    assert per_hi <= SUBLINEAR_CEILING * per_lo, (
        f"per-circuit tick cost grew {per_hi / per_lo:.2f}x "
        f"from {LO_CIRCUITS} to {HI_CIRCUITS} circuits"
    )


def test_report_arena():
    times = tick_scaling_timings()
    per_lo = times[LO_CIRCUITS] / LO_CIRCUITS
    per_hi = times[HI_CIRCUITS] / HI_CIRCUITS
    rows = [
        [
            f"traffic tick per circuit ({LO_CIRCUITS}->{HI_CIRCUITS} circuits)",
            ARENA_NODES,
            per_lo * 1e6,
            per_hi * 1e6,
            per_lo / per_hi,
        ],
    ]
    report(
        "E21",
        "Global circuit arena: dispatch scaling"
        + (" [quick]" if QUICK else ""),
        ["kernel", "n", "before (us)", "after (us)", "speedup"],
        rows,
    )
    write_bench_json(
        "E21",
        [
            {
                "op": "tick_per_circuit",
                "n": HI_CIRCUITS,
                "before_s": per_lo,
                "after_s": per_hi,
                "speedup": per_lo / per_hi,
            },
        ],
        quick=QUICK,
    )
