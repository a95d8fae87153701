"""Equivalence: vectorized kernels vs retained scalar references.

The struct-of-arrays refactor keeps the pre-vectorization Python-loop
implementations (``nearest_node_scalar``, ``nodes_within_scalar``,
``sweep_scalar``, ``placement_*_scalar``, the dynamics ``step_scalar``
family, ``Reoptimizer.local_step_scalar`` / ``evacuate_scalar``, the
scalar Hilbert/Morton encoders, and ``Simulation.step_scalar``) as
ground truth; these tests assert the production vectorized paths
reproduce them to 1e-9 (exact integers for curve keys and RNG-driven
state) on randomized inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circuit import Circuit, Service
from repro.core.coordinates import CostCoordinate
from repro.core.cost_space import (
    CostSpace,
    CostSpaceSpec,
    nearest_node_scalar,
    nodes_within_scalar,
)
from repro.core import virtual_placement as vp
from repro.core.costs import CostSpaceEvaluator, GroundTruthEvaluator
from repro.core.physical_mapping import (
    CatalogMapper,
    ExhaustiveMapper,
    build_catalog,
    map_circuit,
    map_circuits,
)
from repro.core.reoptimizer import Reoptimizer, _CircuitKernel, _ReoptArena
from repro.core.weighting import exponential, linear, squared, threshold, zero
from repro.dht import hilbert as hb
from repro.dht.catalog import CoordinateCatalog
from repro.dht.chord import ChordRing
from repro.network.dynamics import (
    ChurnProcess,
    HotspotEvent,
    LatencyDriftProcess,
    LoadProcess,
)
from repro.network.latency import LatencyMatrix
from repro.query.operators import ServiceSpec, state_units


@st.composite
def spaces_and_targets(draw):
    seed = draw(st.integers(min_value=0, max_value=1 << 16))
    n = draw(st.integers(min_value=1, max_value=120))
    vector_dims = draw(st.integers(min_value=1, max_value=3))
    with_load = draw(st.booleans())
    rng = np.random.default_rng(seed)
    embedding = rng.uniform(-100.0, 100.0, size=(n, vector_dims))
    if with_load:
        spec = CostSpaceSpec.latency_load(vector_dims=vector_dims)
        space = CostSpace.from_embedding(
            spec, embedding, {"cpu_load": rng.uniform(0, 1, size=n)}
        )
        scalars = (float(rng.uniform(0, 100)),)
    else:
        spec = CostSpaceSpec.latency_only(vector_dims=vector_dims)
        space = CostSpace.from_embedding(spec, embedding)
        scalars = ()
    target = CostCoordinate(
        tuple(float(v) for v in rng.uniform(-100, 100, size=vector_dims)), scalars
    )
    num_excluded = draw(st.integers(min_value=0, max_value=max(0, n - 1)))
    exclude = set(int(i) for i in rng.choice(n, size=num_excluded, replace=False))
    return space, target, exclude, seed


class TestCostSpaceQueries:
    @given(spaces_and_targets())
    @settings(max_examples=80, deadline=None)
    def test_nearest_node_matches_scalar(self, case):
        space, target, exclude, _ = case
        assert space.nearest_node(target, exclude=exclude) == nearest_node_scalar(
            space, target, exclude=exclude
        )

    @given(spaces_and_targets())
    @settings(max_examples=80, deadline=None)
    def test_nodes_within_matches_scalar(self, case):
        space, target, exclude, seed = case
        rng = np.random.default_rng(seed + 1)
        radius = float(rng.uniform(0, 250))
        assert space.nodes_within(target, radius, exclude=exclude) == (
            nodes_within_scalar(space, target, radius, exclude=exclude)
        )

    @given(spaces_and_targets())
    @settings(max_examples=40, deadline=None)
    def test_distances_from_matches_pointwise(self, case):
        space, target, _, _ = case
        batched = space.distances_from(target)
        pointwise = np.array(
            [target.distance_to(space.coordinate(i)) for i in range(space.num_nodes)]
        )
        assert np.allclose(batched, pointwise, atol=1e-9)

    @given(spaces_and_targets())
    @settings(max_examples=40, deadline=None)
    def test_nearest_nodes_batch_matches_single(self, case):
        space, target, exclude, seed = case
        rng = np.random.default_rng(seed + 2)
        targets = [target]
        for _ in range(4):
            targets.append(
                CostCoordinate(
                    tuple(
                        float(v)
                        for v in rng.uniform(-100, 100, size=target.vector_dims)
                    ),
                    tuple(float(rng.uniform(0, 100)) for _ in target.scalar),
                )
            )
        batched = space.nearest_nodes(targets, exclude=exclude)
        singles = [space.nearest_node(t, exclude=exclude) for t in targets]
        assert list(batched) == singles


class TestWeightingArrays:
    @pytest.mark.parametrize(
        "weighting",
        [squared(70.0), linear(30.0), exponential(3.0, 50.0), threshold(0.6, 80.0), zero()],
        ids=lambda w: w.name,
    )
    def test_apply_array_matches_scalar(self, weighting):
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 1.0, size=257)
        batched = weighting.apply_array(values)
        pointwise = np.array([weighting(v) for v in values])
        assert np.allclose(batched, pointwise, atol=1e-9)

    def test_apply_array_rejects_negative_input(self):
        with pytest.raises(ValueError):
            squared().apply_array(np.array([0.1, -0.2]))


def random_circuit(seed: int, num_unpinned: int = 12, num_pinned: int = 4):
    """A random connected circuit plus pinned vector positions."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(name="t")
    pinned_positions = {}
    for a in range(num_pinned):
        sid = f"t/p{a}"
        circuit.add_service(
            Service(sid, ServiceSpec.relay(), pinned_node=a, producers=frozenset((f"P{a}",)))
        )
        pinned_positions[sid] = rng.uniform(-50.0, 50.0, size=2)
    ids = list(circuit.services)
    for i in range(num_unpinned):
        sid = f"t/s{i}"
        circuit.add_service(
            Service(sid, ServiceSpec.join(), pinned_node=None, producers=frozenset((f"S{i}",)))
        )
        # Connect to an existing service (keeps the graph connected) and
        # sometimes to a second one; zero rates exercise the skip path.
        circuit.add_link(str(rng.choice(ids)), sid, float(rng.uniform(0.0, 8.0)))
        if rng.random() < 0.7:
            other = str(rng.choice(ids))
            if other != sid:
                circuit.add_link(other, sid, float(rng.uniform(0.0, 8.0)))
        ids.append(sid)
    return circuit, pinned_positions


SWEEP_MODES = [
    ("relaxation", True, False),
    ("centroid", False, False),
    ("weiszfeld", True, True),
]


class TestPlacementSweeps:
    @pytest.mark.parametrize("mode,rate_weighted,distance_weighted", SWEEP_MODES)
    @pytest.mark.parametrize("seed", range(6))
    def test_matrix_sweep_matches_scalar_sweep(
        self, seed, mode, rate_weighted, distance_weighted
    ):
        circuit, pinned_positions = random_circuit(seed)
        positions, unpinned = vp._pinned_and_unpinned(circuit, pinned_positions)
        arrays = vp._CircuitArrays(circuit, positions, unpinned)
        center = np.mean(
            [positions[sid] for sid in circuit.pinned_ids()], axis=0
        )
        scalar_positions = dict(positions)
        scalar_positions.update({sid: center.copy() for sid in unpinned})

        for _ in range(5):
            move_vec = arrays.sweep(rate_weighted, distance_weighted)
            move_ref = vp.sweep_scalar(
                circuit, scalar_positions, unpinned, rate_weighted, distance_weighted
            )
            assert move_vec == pytest.approx(move_ref, abs=1e-9)
            placed = arrays.unpinned_positions()
            for sid in unpinned:
                assert np.allclose(placed[sid], scalar_positions[sid], atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_objectives_match_scalar(self, seed):
        circuit, pinned_positions = random_circuit(seed)
        placement = vp.relaxation_placement(circuit, pinned_positions)
        positions = {sid: np.asarray(p) for sid, p in pinned_positions.items()}
        positions.update(placement.positions)
        assert vp.placement_energy(circuit, positions) == pytest.approx(
            vp.placement_energy_scalar(circuit, positions), rel=1e-9
        )
        assert vp.placement_utilization(circuit, positions) == pytest.approx(
            vp.placement_utilization_scalar(circuit, positions), rel=1e-9
        )

    @pytest.mark.parametrize("isolated", [False, True], ids=["connected", "isolated"])
    @pytest.mark.parametrize(
        "placement_fn,rate_weighted",
        [(vp.relaxation_placement, True), (vp.centroid_placement, False)],
        ids=["relaxation", "centroid"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_full_placements_match_scalar_driver(
        self, seed, placement_fn, rate_weighted, isolated
    ):
        """Whole runs agree: same sweeps, same convergence, same result.

        The matrix sweep keeps its position-independent arrays between
        sweeps; an isolated unpinned service (no links, so it never
        moves) takes it through the masked division.
        """
        circuit, pinned_positions = random_circuit(seed, num_unpinned=20)
        if isolated:
            circuit.add_service(
                Service("t/alone", ServiceSpec.join(), pinned_node=None, producers=frozenset(("Z",)))
            )
        positions, unpinned = vp._pinned_and_unpinned(circuit, pinned_positions)
        center = np.mean([positions[sid] for sid in circuit.pinned_ids()], axis=0)
        positions.update({sid: center.copy() for sid in unpinned})
        converged = False
        for iterations in range(1, 401):
            if vp.sweep_scalar(circuit, positions, unpinned, rate_weighted, False) < 1e-4:
                converged = True
                break
        placement = placement_fn(circuit, pinned_positions)
        assert (placement.iterations, placement.converged) == (iterations, converged)
        for sid in unpinned:
            assert np.allclose(placement.position_of(sid), positions[sid], atol=1e-9)
        if isolated:
            assert np.array_equal(placement.position_of("t/alone"), center)


class TestExactEquilibriumSolvers:
    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_and_dense_solvers_agree(self, seed, monkeypatch):
        circuit, pinned_positions = random_circuit(seed, num_unpinned=80)
        monkeypatch.setattr(vp, "SPARSE_SOLVER_THRESHOLD", 1)
        sparse = vp.exact_spring_equilibrium(circuit, pinned_positions)
        monkeypatch.setattr(vp, "SPARSE_SOLVER_THRESHOLD", 1 << 30)
        dense = vp.exact_spring_equilibrium(circuit, pinned_positions)
        assert sparse.positions.keys() == dense.positions.keys()
        for sid in sparse.positions:
            assert np.allclose(
                sparse.positions[sid], dense.positions[sid], atol=1e-7
            )

    def test_large_circuit_uses_sparse_path(self):
        circuit, pinned_positions = random_circuit(1, num_unpinned=vp.SPARSE_SOLVER_THRESHOLD + 10)
        result = vp.exact_spring_equilibrium(circuit, pinned_positions)
        relax = vp.relaxation_placement(
            circuit, pinned_positions, max_iterations=5000, tolerance=1e-10
        )
        for sid, pos in result.positions.items():
            assert np.allclose(relax.position_of(sid), pos, atol=1e-4)


# -- dynamics processes ----------------------------------------------------


def _twin_load_processes(seed: int) -> tuple[LoadProcess, LoadProcess]:
    def make() -> LoadProcess:
        proc = LoadProcess(num_nodes=40, sigma=0.08, seed=seed)
        proc.add_hotspot(HotspotEvent(start_tick=2, duration=4, nodes=(1, 5, 9), extra_load=0.5))
        proc.add_hotspot(HotspotEvent(start_tick=5, duration=2, nodes=(5, 6), extra_load=0.9))
        return proc

    return make(), make()


class TestDynamicsEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_load_step_matches_scalar(self, seed):
        vector, scalar = _twin_load_processes(seed)
        for _ in range(8):
            assert np.allclose(vector.step(), scalar.step_scalar(), atol=1e-9)
            assert np.allclose(vector.loads(), scalar.loads_scalar(), atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_latency_drift_step_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0, 50, size=(12, 2))
        diff = points[:, None, :] - points[None, :, :]
        base = LatencyMatrix(np.sqrt((diff ** 2).sum(axis=-1)))
        vector = LatencyDriftProcess(base, drift_sigma=0.05, reversion=0.1, seed=seed)
        scalar = LatencyDriftProcess(base, drift_sigma=0.05, reversion=0.1, seed=seed)
        for _ in range(5):
            assert np.allclose(
                vector.step().values, scalar.step_scalar().values, atol=1e-9
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_churn_step_matches_scalar(self, seed):
        kwargs = dict(
            num_nodes=60, fail_prob=0.15, recover_prob=0.4, protected={0, 3}, seed=seed
        )
        vector, scalar = ChurnProcess(**kwargs), ChurnProcess(**kwargs)
        for _ in range(10):
            assert vector.step() == scalar.step_scalar()
            assert vector.alive() == scalar.alive()

    def test_processes_are_deterministic_per_seed(self):
        # Satellite: one seeded np.random.Generator per process — the
        # same seed must replay the exact same trajectory.
        a, b = _twin_load_processes(9)
        a.step(12), b.step(12)
        assert np.array_equal(a.loads(), b.loads())
        base = LatencyMatrix.from_topology(__import__("repro.network.topology", fromlist=["grid_topology"]).grid_topology(3, 3))
        d1 = LatencyDriftProcess(base, seed=9)
        d2 = LatencyDriftProcess(base, seed=9)
        assert np.array_equal(d1.step(6).values, d2.step(6).values)
        c1 = ChurnProcess(30, fail_prob=0.3, recover_prob=0.5, seed=9)
        c2 = ChurnProcess(30, fail_prob=0.3, recover_prob=0.5, seed=9)
        assert c1.step(6) == c2.step(6)
        assert c1.alive() == c2.alive()


# -- re-optimizer pricing --------------------------------------------------


def _random_placed_circuit(
    rng: np.random.Generator, n: int, name: str = "r", num_unpinned: int = 8
) -> Circuit:
    """A random connected circuit fully placed on nodes ``[0, n)``."""
    circuit = Circuit(name=name)
    for a in range(3):
        circuit.add_service(
            Service(
                f"{name}/p{a}",
                ServiceSpec.relay(),
                int(rng.integers(n)),
                frozenset((f"P{a}",)),
            )
        )
    ids = list(circuit.services)
    for i in range(num_unpinned):
        sid = f"{name}/s{i}"
        circuit.add_service(
            Service(sid, ServiceSpec.join(), None, frozenset((f"S{i}",)))
        )
        circuit.add_link(str(rng.choice(ids)), sid, float(rng.uniform(0.0, 8.0)))
        if rng.random() < 0.6:
            other = str(rng.choice(ids))
            if other != sid:
                circuit.add_link(other, sid, float(rng.uniform(0.0, 8.0)))
        circuit.assign(sid, int(rng.integers(n)))
        ids.append(sid)
    return circuit


def _placed_circuit_and_space(seed: int, num_unpinned: int = 8):
    """A random placed circuit over a random latency+load cost space."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 60))
    spec = CostSpaceSpec.latency_load(vector_dims=2)
    embedding = rng.uniform(-80.0, 80.0, size=(n, 2))
    loads = rng.uniform(0.0, 1.0, size=n)
    space = CostSpace.from_embedding(spec, embedding, {"cpu_load": loads})
    circuit = _random_placed_circuit(rng, n, num_unpinned=num_unpinned)
    latencies = None
    if seed % 2 == 0:
        diff = embedding[:, None, :] - embedding[None, :, :]
        latencies = LatencyMatrix(np.sqrt((diff ** 2).sum(axis=-1)))
    return circuit, space, loads, latencies


def _evaluator_for(seed, space, loads, latencies):
    if latencies is not None:
        return GroundTruthEvaluator(latencies, loads)
    return CostSpaceEvaluator(space)


class TestReoptimizerEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_kernel_total_matches_evaluator(self, seed):
        circuit, space, loads, latencies = _placed_circuit_and_space(seed)
        evaluator = _evaluator_for(seed, space, loads, latencies)
        kernel = _CircuitKernel(circuit)
        hosts = kernel.hosts(circuit)
        arena = _ReoptArena([kernel])
        for load_weight in (0.0, 0.7, 1.0):
            expected = evaluator.evaluate(circuit, load_weight=load_weight).total
            (total,) = arena.totals(
                hosts, evaluator, evaluator.penalty_array, load_weight
            )
            assert total == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_kernel_targets_match_local_targets(self, seed):
        circuit, space, loads, latencies = _placed_circuit_and_space(seed)
        reopt = Reoptimizer(space)
        kernel = _CircuitKernel(circuit)
        batched = _ReoptArena([kernel]).targets(
            kernel.hosts(circuit), space.vector_matrix()
        )
        for k, sid in enumerate(kernel.unpinned_sids):
            assert np.allclose(batched[k], reopt._local_target(circuit, sid), atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_local_step_matches_scalar(self, seed):
        circuit, space, loads, latencies = _placed_circuit_and_space(seed)
        evaluator = _evaluator_for(seed, space, loads, latencies)
        vec_circuit, sc_circuit = circuit.copy(), circuit.copy()
        vec = Reoptimizer(space, evaluator=evaluator, migration_threshold=0.01)
        sc = Reoptimizer(space, evaluator=evaluator, migration_threshold=0.01)
        rv = vec.local_step(vec_circuit)
        rs = sc.local_step_scalar(sc_circuit)
        assert [(m.service_id, m.from_node, m.to_node) for m in rv.migrations] == [
            (m.service_id, m.from_node, m.to_node) for m in rs.migrations
        ]
        assert vec_circuit.placement == sc_circuit.placement
        for mv, ms in zip(rv.migrations, rs.migrations):
            assert mv.cost_before == pytest.approx(ms.cost_before, rel=1e-9)
            assert mv.cost_after == pytest.approx(ms.cost_after, rel=1e-9)
        assert rv.cost_before.total == pytest.approx(rs.cost_before.total, rel=1e-9)
        assert rv.cost_after.total == pytest.approx(rs.cost_after.total, rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_step_all_matches_scalar(self, seed):
        _, space, _, _ = _placed_circuit_and_space(seed)
        rng = np.random.default_rng(seed + 100)
        circuits_v, circuits_s = [], []
        for offset in range(3):
            circuit = _random_placed_circuit(rng, space.num_nodes, name=f"r{offset}")
            circuits_v.append(circuit.copy())
            circuits_s.append(circuit.copy())
        vec = Reoptimizer(space, migration_threshold=0.01)
        sc = Reoptimizer(space, migration_threshold=0.01)
        reports_v = vec.step_all(circuits_v)
        reports_s = sc.step_all_scalar(circuits_s)
        for rv, rs, cv, cs in zip(reports_v, reports_s, circuits_v, circuits_s):
            assert [(m.service_id, m.to_node) for m in rv.migrations] == [
                (m.service_id, m.to_node) for m in rs.migrations
            ]
            assert cv.placement == cs.placement

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("threshold, freeze", [(0.02, False), (0.99, True)])
    def test_evacuate_matches_scalar(self, seed, threshold, freeze):
        # An evacuation is forced: neither a prohibitive threshold nor a
        # frozen evacuee keeps a service on the failed node.
        circuit, space, loads, latencies = _placed_circuit_and_space(seed)
        evaluator = _evaluator_for(seed, space, loads, latencies)
        evacuee = circuit.unpinned_ids()[0]
        failed = circuit.host_of(evacuee)
        vec_circuit, sc_circuit = circuit.copy(), circuit.copy()
        vec, sc = (
            Reoptimizer(space, evaluator=evaluator, migration_threshold=threshold)
            for _ in range(2)
        )
        if freeze:
            vec.frozen = sc.frozen = {(circuit.name, evacuee)}
        mv = vec.evacuate(vec_circuit, failed)
        ms = sc.evacuate_scalar(sc_circuit, failed)
        assert [(m.service_id, m.from_node, m.to_node) for m in mv] == [
            (m.service_id, m.from_node, m.to_node) for m in ms
        ]
        assert {m.service_id for m in mv} == {
            sid for sid in circuit.unpinned_ids() if circuit.host_of(sid) == failed
        }
        assert failed not in {
            vec_circuit.host_of(sid) for sid in vec_circuit.unpinned_ids()
        }
        assert vec_circuit.placement == sc_circuit.placement
        assert vec.accepts == vec.rejects == 0
        for a, b in zip(mv, ms):
            assert a.cost_before == pytest.approx(b.cost_before, rel=1e-9)
            assert a.cost_after == pytest.approx(b.cost_after, rel=1e-9)


# -- Hilbert / Morton batch kernels ---------------------------------------


@st.composite
def curve_cases(draw):
    dims = draw(st.integers(min_value=1, max_value=6))
    bits = draw(st.integers(min_value=1, max_value=min(10, 64 // dims)))
    seed = draw(st.integers(min_value=0, max_value=1 << 16))
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 80))
    coords = rng.integers(0, 1 << bits, size=(m, dims))
    return bits, dims, coords


class TestCurveBatchEquivalence:
    @given(curve_cases())
    @settings(max_examples=60, deadline=None)
    def test_hilbert_batch_matches_scalar_roundtrip(self, case):
        bits, dims, coords = case
        keys = hb.hilbert_encode_batch(coords, bits)
        reference = [
            hb.hilbert_encode(tuple(int(c) for c in row), bits) for row in coords
        ]
        assert [int(k) for k in keys] == reference
        decoded = hb.hilbert_decode_batch(keys, bits, dims)
        assert np.array_equal(decoded.astype(np.int64), coords)

    @given(curve_cases())
    @settings(max_examples=60, deadline=None)
    def test_morton_batch_matches_scalar_roundtrip(self, case):
        bits, dims, coords = case
        keys = hb.morton_encode_batch(coords, bits)
        reference = [
            hb.morton_encode(tuple(int(c) for c in row), bits) for row in coords
        ]
        assert [int(k) for k in keys] == reference
        decoded = hb.morton_decode_batch(keys, bits, dims)
        assert np.array_equal(decoded.astype(np.int64), coords)

    @given(st.integers(min_value=0, max_value=1 << 16))
    @settings(max_examples=40, deadline=None)
    def test_mapper_batch_keys_match_scalar(self, seed):
        rng = np.random.default_rng(seed)
        dims = int(rng.integers(1, 4))
        bits = int(rng.integers(2, 11))
        lows = rng.uniform(-50, 0, size=dims)
        highs = lows + rng.uniform(1.0, 100.0, size=dims)
        mapper = hb.HilbertMapper(tuple(lows), tuple(highs), bits=bits)
        points = rng.uniform(-80, 120, size=(50, dims))
        batched = mapper.keys_for(points)
        reference = [hb.hilbert_encode(mapper.quantize(p), bits) for p in points]
        assert [int(k) for k in batched] == reference
        cells = mapper.quantize_batch(points)
        for row, point in zip(cells, points):
            assert tuple(int(c) for c in row) == mapper.quantize(point)


class TestChordBatchOwners:
    @given(st.integers(min_value=0, max_value=1 << 16))
    @settings(max_examples=30, deadline=None)
    def test_owners_of_matches_bisect_reference(self, seed):
        rng = np.random.default_rng(seed)
        ring = ChordRing(id_bits=16)
        for node_id in rng.choice(1 << 16, size=20, replace=False):
            ring.join(node_id=int(node_id))
        keys = rng.integers(0, 1 << 16, size=200)
        batched = ring.owners_of(keys)
        assert [int(o) for o in batched] == [ring._owner_of(int(k)) for k in keys]
        ring.verify_invariants()


# -- overlay + full simulation tick ---------------------------------------


class TestOverlayAndSimulationEquivalence:
    def _simulation(self, seed: int):
        from repro.network.topology import grid_topology
        from repro.sbon.overlay import Overlay
        from repro.sbon.simulator import Simulation, SimulationConfig
        from repro.workloads.queries import WorkloadParams, random_query

        overlay = Overlay.build(
            grid_topology(4, 4), vector_dims=2, embedding_rounds=15, seed=seed
        )
        integ = overlay.integrated_optimizer()
        for i in range(2):
            query, stats = random_query(
                16, WorkloadParams(num_producers=3), name=f"q{i}", seed=seed + i
            )
            overlay.install(integ.optimize(query, stats))
        load = LoadProcess(16, sigma=0.1, seed=seed + 10)
        load.add_hotspot(
            HotspotEvent(start_tick=2, duration=6, nodes=(0, 1, 2), extra_load=0.7)
        )
        drift = LatencyDriftProcess(overlay.latencies, drift_sigma=0.04, seed=seed + 11)
        churn = ChurnProcess(
            16, fail_prob=0.04, recover_prob=0.3, protected=set(range(8)), seed=seed + 12
        )
        return Simulation(
            overlay,
            load_process=load,
            latency_drift=drift,
            churn=churn,
            config=SimulationConfig(reopt_interval=2, migration_threshold=0.01),
        )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_step_matches_step_scalar(self, seed):
        vector, scalar = self._simulation(seed), self._simulation(seed)
        for _ in range(8):
            rv = vector.step()
            rs = scalar.step_scalar()
            assert rv.migrations == rs.migrations
            assert rv.failures == rs.failures
            assert rv.network_usage == pytest.approx(rs.network_usage, rel=1e-9, abs=1e-9)
            assert rv.mean_load == pytest.approx(rs.mean_load, rel=1e-9, abs=1e-9)
            assert rv.max_load == pytest.approx(rs.max_load, rel=1e-9, abs=1e-9)
        for name, circuit in vector.overlay.circuits.items():
            assert circuit.placement == scalar.overlay.circuits[name].placement
        assert np.allclose(
            vector.overlay.loads(), scalar.overlay.loads_scalar(), atol=1e-9
        )

    def test_overlay_array_loads_track_node_state(self):
        sim = self._simulation(1)
        overlay = sim.overlay
        rng = np.random.default_rng(2)
        overlay.set_background_loads(rng.uniform(0, 0.8, size=16))
        sim.run(5)
        assert np.allclose(overlay.loads(), overlay.loads_scalar(), atol=1e-9)
        units = np.zeros(16)
        for circuit in overlay.circuits.values():
            for sid in circuit.unpinned_ids():
                units[circuit.host_of(sid)] += state_units(
                    circuit.services[sid].spec, circuit.input_rate(sid)
                )
        memory_scalar = np.clip(units / 10_000.0, 0.0, 1.0)
        assert np.allclose(overlay.memory_loads(), memory_scalar, atol=1e-9)
        assert overlay.total_network_usage() == pytest.approx(
            overlay.total_network_usage_scalar(), rel=1e-9
        )
        name = next(iter(overlay.circuits))
        overlay.uninstall(name)
        assert np.allclose(overlay.loads(), overlay.loads_scalar(), atol=1e-9)
        assert overlay.total_network_usage() == pytest.approx(
            overlay.total_network_usage_scalar(), rel=1e-9
        )


# -- one catalog round per query -------------------------------------------


class TestBatchedMappingEquivalence:
    """Batches across circuits / keys answer exactly as the per-item path."""

    @pytest.mark.parametrize("backend", ["exhaustive", "catalog"])
    @pytest.mark.parametrize("seed", range(4))
    def test_map_circuits_matches_per_circuit_mapping(self, seed, backend):
        rng = np.random.default_rng(seed)
        spec = CostSpaceSpec.latency_load(vector_dims=2)
        space = CostSpace.from_embedding(
            spec,
            rng.uniform(-60.0, 60.0, size=(80, 2)),
            {"cpu_load": rng.uniform(0, 1, size=80)},
        )
        excluded = set(int(i) for i in rng.choice(80, size=9, replace=False))
        if backend == "exhaustive":
            mapper = ExhaustiveMapper(space, excluded=excluded)
        else:
            mapper = CatalogMapper(
                space, build_catalog(space, bits=8, ring_size=24), 5, excluded
            )
        circuits, placements = [], []
        for k in range(7):
            # k = 0 draws a circuit with no unpinned services at all.
            circuit, pinned = random_circuit(100 * seed + k, num_unpinned=(k * 5) % 7)
            circuits.append(circuit)
            placements.append(vp.relaxation_placement(circuit, pinned))
        singles = [circuit.copy() for circuit in circuits]

        batched = map_circuits(circuits, placements, space, mapper)
        for circuit, single, placement, result in zip(
            circuits, singles, placements, batched
        ):
            reference = map_circuit(single, placement, space, mapper)
            assert result == reference
            assert circuit.placement == single.placement
            assert not {circuit.host_of(sid) for sid in circuit.unpinned_ids()} & excluded


@st.composite
def catalogs_and_batches(draw):
    seed = draw(st.integers(min_value=0, max_value=1 << 16))
    n = draw(st.integers(min_value=2, max_value=60))
    batch = draw(st.integers(min_value=1, max_value=24))
    scan_width = draw(st.integers(min_value=1, max_value=9))
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 100.0, size=(n, 2))
    points[1] = points[0]  # two nodes at identical coordinates: a planted tie
    queries = rng.uniform(0.0, 100.0, size=(batch, 2))
    queries[rng.integers(batch)] = points[0]
    queries[rng.integers(batch)] = queries[0]  # duplicate targets
    num_excluded = draw(st.integers(min_value=0, max_value=n - 1))
    exclude = set(int(i) for i in rng.choice(n, size=num_excluded, replace=False))
    moved = int(rng.integers(n))
    return points, queries, scan_width, exclude, moved, rng.uniform(0.0, 100.0, size=2)


class TestCatalogBatchEquivalence:
    @given(catalogs_and_batches())
    @settings(max_examples=60, deadline=None)
    def test_nearest_batch_matches_per_key_nearest(self, case):
        points, queries, scan_width, exclude, moved, new_point = case
        mapper = hb.HilbertMapper(lows=(0.0, 0.0), highs=(100.0, 100.0), bits=6)
        catalog = CoordinateCatalog(mapper, ring_size=12)
        catalog.publish_batch(list(range(len(points))), points)

        def check():
            entries, stats = catalog.nearest_batch(queries, scan_width, exclude)
            for query, entry, stat in zip(queries, entries, stats):
                reference, reference_stat = catalog.nearest(query, scan_width, exclude)
                assert entry is reference
                assert stat == reference_stat

        check()
        catalog.withdraw(moved)
        check()
        catalog.publish(moved, new_point)
        check()
