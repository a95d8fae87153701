"""E16 — array-backed cost space + vectorized placement kernels.

Before/after evidence for the struct-of-arrays refactor: the retained
scalar reference implementations (per-node / per-service Python loops)
versus the vectorized production paths, measured on the same inputs.

* ``nearest_node`` / ``nodes_within`` throughput at n ∈ {100, 1k, 10k}.
* ``nearest_nodes`` at the re-optimizer pass's shape (200 targets with
  zero load parts, 1 200 nodes, 2 vector + 1 load dims, 60 excluded)
  against a per-target ``nearest_node_scalar`` loop, answers asserted
  equal.
* Relaxation virtual placement of a 200-unpinned-service circuit: the
  scalar Jacobi loop (``sweep_scalar`` sweeps to a 1e-4 tolerance)
  against ``relaxation_placement``'s Laplacian solve.

Set ``BENCH_QUICK=1`` to shrink sizes for CI smoke runs.
"""

from __future__ import annotations

import os
import time
from functools import lru_cache

import numpy as np

from _harness import report, write_bench_json
from repro.core.circuit import Circuit, Service
from repro.core.coordinates import CostCoordinate
from repro.core.cost_space import (
    CostSpace,
    CostSpaceSpec,
    nearest_node_scalar,
    nodes_within_scalar,
)
from repro.core import virtual_placement as vp
from repro.core.weighting import squared
from repro.query.operators import ServiceSpec

QUICK = os.environ.get("BENCH_QUICK", "") == "1"
SIZES = [100, 1000] if QUICK else [100, 1000, 10000]
PLACEMENT_SERVICES = 50 if QUICK else 200
QUERIES_PER_SIZE = {100: 200, 1000: 50, 10000: 10}
PASS_NODES, PASS_TARGETS, PASS_EXCLUDED = 1200, 200, 60


def _timed(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@lru_cache(maxsize=None)
def _space(n: int) -> CostSpace:
    rng = np.random.default_rng(n)
    spec = CostSpaceSpec.latency_load(vector_dims=2, load_weighting=squared(100.0))
    embedding = rng.uniform(0.0, 200.0, size=(n, 2))
    loads = rng.uniform(0.0, 1.0, size=n)
    return CostSpace.from_embedding(spec, embedding, {"cpu_load": loads})


def _query_targets(n: int, count: int) -> list[CostCoordinate]:
    rng = np.random.default_rng(n + 1)
    return [
        CostCoordinate(
            (float(rng.uniform(0, 200)), float(rng.uniform(0, 200))), (0.0,)
        )
        for _ in range(count)
    ]


def _pass_shape() -> tuple[CostSpace, np.ndarray, set[int]]:
    """One reopt pass's mapping call: spring targets with zero load parts."""
    rng = np.random.default_rng(PASS_NODES + 2)
    targets = np.column_stack(
        [rng.uniform(0, 200, size=(PASS_TARGETS, 2)), np.zeros(PASS_TARGETS)]
    )
    exclude = set(
        int(i) for i in rng.choice(PASS_NODES, size=PASS_EXCLUDED, replace=False)
    )
    return _space(PASS_NODES), targets, exclude


@lru_cache(maxsize=None)
def _placement_circuit(
    num_services: int,
) -> tuple[Circuit, tuple[tuple[str, tuple[float, float]], ...]]:
    """A join chain of ``num_services`` unpinned services over 8 anchors."""
    rng = np.random.default_rng(7)
    anchors = 8
    circuit = Circuit(name="bench")
    pinned: list[tuple[str, tuple[float, float]]] = []
    for a in range(anchors):
        sid = f"bench/p{a}"
        circuit.add_service(
            Service(sid, ServiceSpec.relay(), pinned_node=a, producers=frozenset((f"P{a}",)))
        )
        pinned.append((sid, (float(rng.uniform(0, 200)), float(rng.uniform(0, 200)))))
    prev = "bench/p0"
    for i in range(num_services):
        sid = f"bench/s{i}"
        circuit.add_service(
            Service(
                sid,
                ServiceSpec.join(),
                pinned_node=None,
                producers=frozenset((f"P{i % anchors}", f"Q{i}")),
            )
        )
        circuit.add_link(prev, sid, float(rng.uniform(0.5, 10.0)))
        circuit.add_link(
            f"bench/p{int(rng.integers(anchors))}", sid, float(rng.uniform(0.5, 10.0))
        )
        prev = sid
    circuit.add_link(prev, "bench/p1", float(rng.uniform(0.5, 10.0)))
    return circuit, tuple(pinned)


def _relaxation_scalar(
    circuit: Circuit,
    pinned_positions: dict[str, np.ndarray],
    max_iterations: int = 400,
    tolerance: float = 1e-4,
) -> tuple[dict[str, np.ndarray], int]:
    """Reference relaxation loop driven by the scalar sweep."""
    positions, unpinned = vp._pinned_and_unpinned(circuit, pinned_positions)
    center = np.mean([positions[sid] for sid in circuit.pinned_ids()], axis=0)
    positions.update({sid: center.copy() for sid in unpinned})
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        move = vp.sweep_scalar(circuit, positions, unpinned, True, False)
        if move < tolerance:
            break
    return {sid: positions[sid] for sid in unpinned}, iterations


@lru_cache(maxsize=1)
def cost_space_table() -> tuple[list[list], float, float]:
    rows: list[list] = []
    nearest_speedups: dict[int, float] = {}
    for n in SIZES:
        space = _space(n)
        targets = _query_targets(n, QUERIES_PER_SIZE[n])
        radius = 60.0

        def scalar_nearest():
            for t in targets:
                nearest_node_scalar(space, t)

        def vector_nearest():
            for t in targets:
                space.nearest_node(t)

        def scalar_within():
            for t in targets:
                nodes_within_scalar(space, t, radius)

        def vector_within():
            for t in targets:
                space.nodes_within(t, radius)

        t_sn = _timed(scalar_nearest) / len(targets)
        t_vn = _timed(vector_nearest) / len(targets)
        t_sw = _timed(scalar_within) / len(targets)
        t_vw = _timed(vector_within) / len(targets)
        nearest_speedups[n] = t_sn / t_vn
        rows.append(
            ["nearest_node", n, t_sn * 1e3, t_vn * 1e3, t_sn / t_vn]
        )
        rows.append(
            ["nodes_within", n, t_sw * 1e3, t_vw * 1e3, t_sw / t_vw]
        )

    space, pass_targets, exclude = _pass_shape()
    coords = [CostCoordinate((float(x), float(y)), (0.0,)) for x, y, _ in pass_targets]
    start = time.perf_counter()
    scalar_nodes = [nearest_node_scalar(space, c, exclude) for c in coords]
    t_scalar = time.perf_counter() - start
    batched_nodes = space.nearest_nodes(pass_targets, exclude=exclude)
    assert list(batched_nodes) == scalar_nodes
    t_batched = _timed(lambda: space.nearest_nodes(pass_targets, exclude=exclude))
    rows.append(
        [
            f"nearest_nodes ({PASS_TARGETS} targets, one call)",
            PASS_NODES,
            t_scalar * 1e3,
            t_batched * 1e3,
            t_scalar / t_batched,
        ]
    )

    circuit, pinned = _placement_circuit(PLACEMENT_SERVICES)
    pinned_positions = {sid: np.asarray(p) for sid, p in pinned}
    t_scalar = _timed(lambda: _relaxation_scalar(circuit, pinned_positions), repeats=2)
    t_vector = _timed(lambda: vp.relaxation_placement(circuit, pinned_positions), repeats=2)
    placement_speedup = t_scalar / t_vector
    rows.append(
        [
            f"relaxation ({PLACEMENT_SERVICES} services)",
            PLACEMENT_SERVICES,
            t_scalar * 1e3,
            t_vector * 1e3,
            placement_speedup,
        ]
    )
    return rows, nearest_speedups[max(SIZES)], placement_speedup


def test_report_vectorized_speedups():
    rows, nearest_speedup, placement_speedup = cost_space_table()
    report(
        "E16",
        "Array-backed cost space: scalar reference vs vectorized kernels"
        + (" [quick]" if QUICK else ""),
        ["kernel", "n", "scalar ms/op", "vectorized ms/op", "speedup"],
        rows,
    )
    write_bench_json(
        "E16",
        [
            {
                "op": str(row[0]),
                "n": int(row[1]),
                "before_s": float(row[2]) / 1e3,
                "after_s": float(row[3]) / 1e3,
                "speedup": float(row[4]),
            }
            for row in rows
        ],
        quick=QUICK,
    )
    # Acceptance: ≥10× on the largest nearest_node sweep and on the
    # relaxation placement (both are far beyond 10× in practice).
    assert nearest_speedup >= 10.0
    assert placement_speedup >= 10.0


def test_vectorized_placement_matches_scalar_reference():
    """The solve is the scalar loop's fixed point, run to 1e-12, within 1e-6 of the spread."""
    circuit, pinned = _placement_circuit(PLACEMENT_SERVICES)
    pinned_positions = {sid: np.asarray(p) for sid, p in pinned}
    budget = 100_000
    scalar_positions, scalar_iters = _relaxation_scalar(
        circuit, pinned_positions, max_iterations=budget, tolerance=1e-12
    )
    assert scalar_iters < budget
    placement = vp.relaxation_placement(circuit, pinned_positions)
    assert (placement.iterations, placement.converged) == (0, True)
    spread = float(np.linalg.norm(np.ptp(np.array([p for _, p in pinned]), axis=0)))
    for sid, pos in scalar_positions.items():
        assert np.linalg.norm(placement.position_of(sid) - pos) <= 1e-6 * spread


def test_nearest_nodes_batch_throughput(benchmark):
    space = _space(SIZES[-1])
    targets = _query_targets(SIZES[-1], QUERIES_PER_SIZE[SIZES[-1]])
    matrix = np.array([t.full_array() for t in targets])
    nodes = benchmark(space.nearest_nodes, matrix)
    assert len(nodes) == len(targets)


def test_relaxation_placement_speed(benchmark):
    circuit, pinned = _placement_circuit(PLACEMENT_SERVICES)
    pinned_positions = {sid: np.asarray(p) for sid, p in pinned}
    placement = benchmark(vp.relaxation_placement, circuit, pinned_positions)
    assert len(placement.positions) == PLACEMENT_SERVICES
