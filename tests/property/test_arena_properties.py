"""Properties of the global circuit arena runtime path.

The arena (segment install / tombstone / compaction, cached host
columns) and the fused re-optimizer are pinned
directly to the scalar oracle: a twin stepped through
``step_scalar`` (per-tuple heapq transport, per-key join tables,
per-candidate re-optimization) must agree with ``step`` *tick for
tick* — every :data:`TRAFFIC_FIELDS` entry exactly, measured usage to
1e-9 — under chaos, mid-run install/uninstall, and rolling tenant
churn with compaction, with the CPU-cost load model (probe charges
included) pricing admission.  Compaction must also be unobservable:
compacting at any tick leaves every subsequent record identical to a
twin that never compacts.
"""

import numpy as np
import pytest

from repro.core.load_model import LoadModel
from repro.network.dynamics import ChurnProcess, LatencyDriftProcess, LoadProcess
from repro.network.topology import grid_topology
from repro.runtime.arena import ArenaSegment, CircuitArena
from repro.runtime.dataplane import DataPlane, RuntimeConfig
from repro.sbon.overlay import Overlay
from repro.sbon.simulator import Simulation, SimulationConfig
from repro.workloads.queries import WorkloadParams, random_query
from repro.workloads.scenarios import tenant_churn_scenario

PARAMS = WorkloadParams(
    num_producers=3, rate_bounds=(3.0, 8.0), selectivity_bounds=(0.2, 0.6)
)

#: Every exactly comparable :class:`TrafficRecord` field (``usage`` is
#: compared to 1e-9).  ``TickRecord`` shares all but ``processed`` /
#: ``in_flight``.
TRAFFIC_FIELDS = (
    "tick",
    "emitted",
    "delivered",
    "dropped",
    "processed",
    "in_flight",
    "latency_p50",
    "latency_p95",
    "latency_p99",
    "shed",
    "redelivered",
    "buffered",
    "cpu_cost",
    "cpu_dropped",
    "recompiles",
)


def assert_records_equal(ra, rb):
    """Every :data:`TRAFFIC_FIELDS` entry equal; usage to 1e-9 rel."""
    for name in TRAFFIC_FIELDS:
        if hasattr(ra, name):
            assert getattr(ra, name) == getattr(rb, name), name
    ua = ra.usage if hasattr(ra, "usage") else ra.data_usage
    ub = rb.usage if hasattr(rb, "usage") else rb.data_usage
    assert ua == pytest.approx(ub, rel=1e-9, abs=1e-9)


def spy(obj, name):
    """Log every return value of ``obj.<name>()`` (an instance-level wrap).

    Lets a property read the :class:`TrafficRecord` a simulation's data
    plane returned, or count arena compactions, without touching the
    code under test.
    """
    log = []
    method = getattr(obj, name)

    def wrapped(*args, **kwargs):
        log.append(method(*args, **kwargs))
        return log[-1]

    setattr(obj, name, wrapped)
    return log


def pool_log(plane, rows=16):
    """Start ``plane``'s join slot table at ``rows`` rows and log every
    pool compaction as ``(rows held, capacity before, capacity after)``.

    Call before the first step (the pool is allocated by the first
    insert).
    """
    table = plane._join
    table.capacity = rows
    log = []
    compact = table.compact

    def logged(now, extra):
        before = (table.top, table.capacity)
        compact(now, extra)
        log.append((*before, table.capacity))

    table.compact = logged
    return log


def assert_pool_cycled(log):
    """At least one compaction of a non-empty pool, and one growth of it."""
    assert any(top for top, _, _ in log), "the pool never compacted"
    assert any(top and after > before for top, before, after in log), (
        "the pool never grew"
    )


def traffic_overlay(seed=0, num_circuits=3, side=5):
    n = side * side
    overlay = Overlay.build(
        grid_topology(side, side), vector_dims=2, embedding_rounds=20, seed=seed
    )
    pinned = set()
    optimizer = overlay.integrated_optimizer()
    for i in range(num_circuits):
        query, stats = random_query(n, PARAMS, name=f"q{i}", seed=seed * 10 + i)
        overlay.install(optimizer.optimize(query, stats))
        pinned |= {p.node for p in query.producers} | {query.consumer.node}
    return overlay, pinned


def chaotic_simulation(seed=0, capacity=40.0, **runtime_kwargs):
    """Churn + latency drift + live migration + capacity, probe cost on."""
    overlay, pinned = traffic_overlay(seed)
    n = overlay.num_nodes
    runtime_kwargs.setdefault("load_model", LoadModel())
    plane = DataPlane(
        overlay, RuntimeConfig(seed=99, node_capacity=capacity, **runtime_kwargs)
    )
    return Simulation(
        overlay,
        load_process=LoadProcess(n, sigma=0.1, seed=1),
        latency_drift=LatencyDriftProcess(overlay.latencies, drift_sigma=0.03, seed=2),
        churn=ChurnProcess(
            n, fail_prob=0.01, recover_prob=0.2, protected=pinned, seed=3
        ),
        config=SimulationConfig(reopt_interval=3, migration_threshold=0.0),
        data_plane=plane,
    )


def churn_overlay_pair(seed=6):
    """Twin overlays + planes for a step() / step_scalar() pair."""
    ov_a, _ = traffic_overlay(seed=seed)
    ov_b, _ = traffic_overlay(seed=seed)
    cfg = RuntimeConfig(seed=5, node_capacity=40.0, load_model=LoadModel())
    return ov_a, ov_b, DataPlane(ov_a, cfg), DataPlane(ov_b, cfg)


def assert_simulations_agree(a, b, ticks, between=None):
    """Step ``a`` through step() and ``b`` through step_scalar() in lockstep.

    Compares the tick records and the data planes' own traffic records
    every tick, conservation included, and at the end every sink
    delivery in order (which pins match enumeration order, not just
    counts); ``between(tick)`` runs after each tick (the churn driver).
    Returns the fast twin's traffic log.
    """
    log_a = spy(a.data_plane, "step")
    log_b = spy(b.data_plane, "step_scalar")
    a.data_plane.sink_log, b.data_plane.sink_log = [], []
    for tick in range(ticks):
        ra, rb = a.step(), b.step_scalar()
        assert (ra.migrations, ra.failures, ra.circuits) == (
            rb.migrations, rb.failures, rb.circuits,
        )
        assert ra.network_usage == pytest.approx(rb.network_usage, rel=1e-9)
        assert_records_equal(ra, rb)
        assert_records_equal(log_a[-1], log_b[-1])
        assert a.data_plane.accounting()["balanced"], tick
        if between is not None:
            between(tick)
    assert a.data_plane.accounting() == b.data_plane.accounting()
    assert a.data_plane.sink_log == b.data_plane.sink_log
    for name, circuit in a.overlay.circuits.items():
        assert circuit.placement == b.overlay.circuits[name].placement
    return log_a


# ---------------------------------------------------------------------------
# Per-tick accumulators
# ---------------------------------------------------------------------------


class TestTickAccumulators:
    def test_tick_op_cpu_outlives_later_ticks(self):
        # Each tick's per-op cost array is the caller's to keep: a later
        # tick neither writes into it nor starts from its totals.
        overlay, _ = traffic_overlay(seed=1)
        plane = DataPlane(overlay, RuntimeConfig(seed=3, load_model=LoadModel()))
        held = []
        for _ in range(12):
            record = plane.step()
            held.append((plane.tick_op_cpu, plane.tick_op_cpu.copy(), record))
        assert sum(r.cpu_cost for _, _, r in held) > 0
        for cpu, snapshot, record in held:
            np.testing.assert_array_equal(cpu, snapshot)
            assert cpu.sum() == pytest.approx(record.cpu_cost, rel=1e-12)
        assert plane.tick_node_cpu.sum() == pytest.approx(held[-1][0].sum())

    def test_node_capacity_budget_restarts_every_tick(self):
        # A capacity that holds any one tick's admitted cost but not the
        # sum of two sheds nothing, however long the plane runs.
        overlay, _ = traffic_overlay(seed=1)
        free = DataPlane(overlay, RuntimeConfig(seed=3, load_model=LoadModel()))
        peak = 0.0
        for _ in range(20):
            free.step()
            peak = max(peak, float(free.tick_node_cpu.max()))
        assert peak > 0
        overlay, _ = traffic_overlay(seed=1)
        capped = DataPlane(
            overlay,
            RuntimeConfig(seed=3, load_model=LoadModel(), node_capacity=1.5 * peak),
        )
        used = np.zeros(overlay.num_nodes)
        for _ in range(20):
            record = capped.step()
            assert record.dropped == 0 and record.cpu_dropped == 0
            used += capped.tick_node_cpu
        assert used.max() > 1.5 * peak


# ---------------------------------------------------------------------------
# Circuit arena bookkeeping
# ---------------------------------------------------------------------------


class TestCircuitArena:
    def test_append_tombstone_compaction_roundtrip(self):
        arena = CircuitArena(compact_threshold=0.25)
        for name, n_ops, n_links in (("a", 3, 4), ("b", 2, 2), ("c", 4, 5)):
            arena.append(name, n_ops, n_links)
        assert arena.num_ops == 9 and arena.num_links == 11
        seg = arena.tombstone("b")
        assert isinstance(seg, ArenaSegment) and seg.op_base == 3
        assert arena.dead_ops == 2 and arena.dead_links == 2
        # Identity-except-dead mapping drops exactly b's rows.
        mapping = arena.op_mapping()
        assert list(mapping[3:5]) == [-1, -1]
        assert list(mapping[:3]) == [0, 1, 2] and list(mapping[5:]) == [5, 6, 7, 8]
        op_gather, link_gather, op_map, link_map = arena.compaction()
        np.testing.assert_array_equal(op_gather, [0, 1, 2, 5, 6, 7, 8])
        assert list(op_map[op_gather]) == list(range(7))
        assert link_gather.size == 9 and list(link_map[link_gather]) == list(range(9))
        arena.apply_compaction()
        assert arena.num_ops == 7 and arena.dead_ops == 0
        assert arena.segments["c"].op_base == 3  # slid left over the hole
        assert arena.tombstone_fraction == 0.0

    def test_threshold_gate(self):
        arena = CircuitArena(compact_threshold=0.5)
        arena.append("a", 5, 5)
        arena.append("b", 5, 5)
        arena.tombstone("a")
        assert not arena.needs_compaction  # exactly at 0.5, not above
        arena2 = CircuitArena(compact_threshold=0.25)
        arena2.append("a", 5, 5)
        arena2.append("b", 5, 5)
        arena2.tombstone("a")
        assert arena2.needs_compaction

    def test_append_after_tombstone_extends_tail(self):
        arena = CircuitArena()
        arena.append("a", 2, 1)
        arena.tombstone("a")
        seg = arena.append("b", 3, 2)
        assert seg.op_base == 2 and seg.link_base == 1
        assert arena.live_op_rows().tolist() == [2, 3, 4]

    def test_ordered_compaction_puts_a_swapped_segment_back(self):
        arena = CircuitArena()
        for name, n_ops, n_links in (("a", 3, 4), ("b", 2, 2), ("c", 4, 5)):
            arena.append(name, n_ops, n_links)
        arena.tombstone("b")
        arena.append("b", 3, 1)  # the replacement lands at the end
        op_gather, link_gather, op_map, link_map = arena.compaction(["a", "b", "c"])
        np.testing.assert_array_equal(op_gather, [0, 1, 2, 9, 10, 11, 5, 6, 7, 8])
        np.testing.assert_array_equal(
            link_gather, [0, 1, 2, 3, 11, 6, 7, 8, 9, 10]
        )
        assert list(op_map[[9, 10, 11]]) == [3, 4, 5]
        assert list(op_map[[3, 4]]) == [-1, -1]
        assert list(link_map[link_gather]) == list(range(10))
        assert list(arena.segments) == ["a", "b", "c"]
        arena.apply_compaction()
        bases = [(s.op_base, s.link_base) for s in arena.segments.values()]
        assert bases == [(0, 0), (3, 4), (6, 5)]
        assert arena.num_ops == 10 and arena.num_links == 10
        assert arena.tombstone_fraction == 0.0
        with pytest.raises(ValueError):
            arena.compaction(["a", "c"])

    def test_duplicate_segment_rejected(self):
        arena = CircuitArena()
        arena.append("a", 1, 0)
        with pytest.raises(ValueError):
            arena.append("a", 1, 0)


# ---------------------------------------------------------------------------
# The arena path pinned to the scalar oracle
# ---------------------------------------------------------------------------


class TestArenaEquivalence:
    def test_twins_agree_under_chaos(self):
        a = chaotic_simulation(seed=5)
        b = chaotic_simulation(seed=5)
        log = assert_simulations_agree(a, b, ticks=30)
        assert a.data_plane.cpu_dropped_total > 0
        assert a.series.total_migrations() > 0
        assert sum(r.recompiles for r in log) == 0

    def test_arena_vs_scalar_under_chaos(self):
        """Chaos again, with a tenant leaving mid-run and the arena
        compacting its tombstone while migrations continue."""
        a = chaotic_simulation(seed=7, compact_threshold=0.01)
        b = chaotic_simulation(seed=7, compact_threshold=0.01)
        compactions = spy(a.data_plane._arena, "apply_compaction")

        def leave(tick):
            if tick == 9:
                a.overlay.uninstall("q1")
                b.overlay.uninstall("q1")

        assert_simulations_agree(a, b, ticks=25, between=leave)
        assert len(compactions) == 1
        assert a.data_plane.dropped_uninstalled > 0

    def test_twins_agree_across_install_uninstall_midrun(self):
        ov_a, ov_b, a, b = churn_overlay_pair(seed=6)
        for _ in range(8):
            assert_records_equal(a.step(), b.step_scalar())
        ov_a.uninstall("q1")
        ov_b.uninstall("q1")
        for _ in range(5):
            assert_records_equal(a.step(), b.step_scalar())
        assert a.dropped_uninstalled == b.dropped_uninstalled > 0
        for name in ("q8", "q9"):
            query, stats = random_query(25, PARAMS, name=name, seed=77 + len(name))
            ov_a.install(ov_a.integrated_optimizer().optimize(query, stats))
            ov_b.install(ov_b.integrated_optimizer().optimize(query, stats))
        ov_a.uninstall("q0")
        ov_b.uninstall("q0")
        for _ in range(10):
            assert_records_equal(a.step(), b.step_scalar())
        assert a.accounting() == b.accounting()
        assert a.accounting()["balanced"]
        # Installs append and uninstalls tombstone on both step paths.
        assert a.recompiles == b.recompiles == 0

    def test_twins_agree_under_tenant_churn(self):
        a, b = (
            tenant_churn_scenario(
                num_nodes=20, initial_circuits=5, seed=11, compact_threshold=0.01
            )
            for _ in range(2)
        )
        for scenario in (a, b):
            scenario.data_plane.set_load_model(LoadModel())
        compactions = spy(a.data_plane._arena, "apply_compaction")

        def churn(tick):
            if tick % 2 == 0:
                a.churn_tick()
                b.churn_tick()

        log = assert_simulations_agree(a.simulation, b.simulation, 24, churn)
        # The fixture exercised the machinery: tombstones compacted,
        # admission priced probes, and churn never forced a recompile.
        assert len(compactions) >= 1
        assert a.data_plane.load_model.probe_cost > 0
        assert a.data_plane.dropped_uninstalled > 0
        assert sum(r.recompiles for r in log) == 0
        assert a.data_plane.recompiles == b.data_plane.recompiles == 0

    def test_replacement_recompiles_both_modes(self):
        """Same-name circuit replacement forces a logged segment swap
        on either step path (they share the arena sync)."""
        for path in ("step", "step_scalar"):
            ov, _ = traffic_overlay(seed=4)
            plane = DataPlane(ov, RuntimeConfig(seed=7))
            step = getattr(plane, path)
            step()
            assert plane.recompiles == 0
            ov.replace_circuit(ov.circuits["q1"].copy())  # equal but not identical
            record = step()
            assert plane.recompiles == 1
            assert record.recompiles == 1
            assert plane.accounting()["balanced"]


# ---------------------------------------------------------------------------
# Fused cross-circuit re-optimization
# ---------------------------------------------------------------------------


class TestFusedReopt:
    def test_fused_step_all_matches_scalar(self):
        from repro.core.reoptimizer import Reoptimizer

        ov_a, _ = traffic_overlay(seed=12, num_circuits=4)
        ov_b, _ = traffic_overlay(seed=12, num_circuits=4)
        # Scatter the optimized placements so the passes have work.
        for ov in (ov_a, ov_b):
            for c, circuit in enumerate(ov.circuits.values()):
                for i, sid in enumerate(circuit.unpinned_ids()):
                    circuit.assign(sid, (7 * c + 11 * i) % ov.num_nodes)
        ra, rb = (
            Reoptimizer(
                ov.cost_space,
                mapper=ov.exhaustive_mapper(),
                migration_threshold=0.0,
                kernel_cache={},
            )
            for ov in (ov_a, ov_b)
        )
        moved = 0
        for _ in range(4):  # repeated passes exercise the arena cache
            reps_a = ra.step_all(list(ov_a.circuits.values()))
            reps_b = rb.step_all_scalar(list(ov_b.circuits.values()))
            for pa, pb in zip(reps_a, reps_b):
                assert [
                    (m.service_id, m.from_node, m.to_node) for m in pa.migrations
                ] == [
                    (m.service_id, m.from_node, m.to_node) for m in pb.migrations
                ]
                for ma, mb in zip(pa.migrations, pb.migrations):
                    assert ma.cost_before == pytest.approx(mb.cost_before, rel=1e-9)
                    assert ma.cost_after == pytest.approx(mb.cost_after, rel=1e-9)
                moved += len(pa.migrations)
        assert moved > 0
        assert ra.arena_builds == 1
        for name, circuit in ov_a.circuits.items():
            assert circuit.placement == ov_b.circuits[name].placement

    def test_fused_arena_sees_calibrated_rates(self):
        from repro.core.reoptimizer import (
            _ARENA_KEY,
            Reoptimizer,
            refresh_kernel_rates,
        )

        ov, _ = traffic_overlay(seed=13, num_circuits=3)
        cache = {}
        reopt = Reoptimizer(
            ov.cost_space, mapper=ov.exhaustive_mapper(), kernel_cache=cache
        )
        circuits = list(ov.circuits.values())
        reopt.step_all(circuits)
        arena = cache[_ARENA_KEY]
        target = circuits[0]
        new_rates = np.array([l.rate for l in target.links]) * 3.0
        assert refresh_kernel_rates(cache, target, new_rates)
        reopt.step_all(circuits)  # rates re-read, structure not rebuilt
        assert cache[_ARENA_KEY] is arena
        ref, kernel = cache[target.name]
        k = arena.kernels.index(kernel)
        s0, s1 = arena.seg_offsets[k], arena.seg_offsets[k + 1]
        np.testing.assert_array_equal(arena.seg_weight[s0:s1], kernel.seg_weight)
        l0, l1 = arena.link_offsets[k], arena.link_offsets[k + 1]
        np.testing.assert_array_equal(arena.link_rates[l0:l1], new_rates)
        # One-circuit passes build their own arena and leave the cached
        # one in place.
        builds = reopt.arena_builds
        other = circuits[1]
        assert reopt.evacuate(other, other.host_of(other.unpinned_ids()[0]))
        reopt.local_step(other)
        reopt.step_all(circuits)
        assert reopt.arena_builds == builds
        assert cache[_ARENA_KEY] is arena

    def test_fused_simulation_twin(self):
        a = chaotic_simulation(seed=15)
        b = chaotic_simulation(seed=15)
        assert_simulations_agree(a, b, ticks=25)
        assert a.series.total_migrations() > 0


# ---------------------------------------------------------------------------
# Compaction unobservability
# ---------------------------------------------------------------------------


class TestCompactionUnobservable:
    def test_compaction_timing_never_changes_records(self):
        # Twin A compacts eagerly (tiny threshold); twin B never does
        # (threshold 1.0 can't be exceeded).  Identical churn schedule;
        # every record must match bit for bit.
        a = tenant_churn_scenario(
            num_nodes=20, initial_circuits=5, seed=2, compact_threshold=0.01
        )
        b = tenant_churn_scenario(
            num_nodes=20, initial_circuits=5, seed=2, compact_threshold=1.0
        )
        compacted = False
        for tick in range(20):
            a.simulation.step()
            b.simulation.step()
            a.churn_tick()
            b.churn_tick()
            if a.data_plane._arena.num_ops < b.data_plane._arena.num_ops:
                compacted = True
        assert compacted, "eager twin never compacted — fixture too small"
        assert b.data_plane._arena.dead_ops > 0, "lazy twin unexpectedly compacted"
        for ra, rb in zip(a.simulation.series.records, b.simulation.series.records):
            assert_records_equal(ra, rb)
            assert ra.recompiles == rb.recompiles == 0
        assert a.data_plane.accounting() == b.data_plane.accounting()

    def test_conservation_every_tick_under_churn_and_compaction(self):
        s = tenant_churn_scenario(
            num_nodes=20, initial_circuits=6, seed=9, compact_threshold=0.05
        )
        for tick in range(25):
            s.simulation.step()
            acct = s.data_plane.accounting()
            assert acct["balanced"], (tick, acct)
            if tick >= 5:  # warm up so tuples actually reach consumers
                s.churn_tick(installs=1, uninstalls=1)
        assert s.data_plane.dropped_uninstalled > 0
        assert s.simulation.series.total_delivered() > 0

    @pytest.mark.parametrize("path", ["step", "step_scalar"])
    def test_segment_swap_restores_the_circuit_position(self, path):
        """Swapping a circuit for an equal copy is unobservable: the new
        segment must land back in its circuit's place (the source draw
        consumes rows in overlay order) and inherit the retired rows'
        tuples, join state and aggregate credit."""

        def plane():
            overlay, _ = traffic_overlay(seed=6, num_circuits=4)
            p = DataPlane(
                overlay,
                RuntimeConfig(
                    seed=5, node_capacity=40.0, load_model=LoadModel(), window=8
                ),
            )
            p.sink_log = []
            return overlay, p, pool_log(p)

        ov_a, a, pool = plane()
        _, b, _ = plane()
        derived = spy(a, "_derive_circuit")
        for tick in range(30):
            if tick == 15:
                ov_a.replace_circuit(ov_a.circuits["q1"].copy())
            ra, rb = getattr(a, path)(), getattr(b, path)()
            for name in TRAFFIC_FIELDS:
                if name != "recompiles":
                    assert getattr(ra, name) == getattr(rb, name), (tick, name)
            assert ra.usage == pytest.approx(rb.usage, rel=1e-9, abs=1e-9)
            if tick == 15:
                assert ra.recompiles == 1 and len(derived) == 1
        assert a.recompiles == 1 and b.recompiles == 0
        assert a.accounting() == b.accounting()
        assert a.sink_log == b.sink_log and a.sink_log
        if path == "step":
            assert_pool_cycled(pool)
        stats_a, stats_b = a.link_stats(), b.link_stats()
        assert stats_a.keys() == stats_b.keys()
        for key, sa in stats_a.items():
            assert sa["tuples"] == stats_b[key]["tuples"]
            assert sa["size"] == pytest.approx(stats_b[key]["size"], rel=1e-9)


# ---------------------------------------------------------------------------
# Gid stability (the hash-salt identity behind all of the above)
# ---------------------------------------------------------------------------


class TestGidStability:
    def test_gids_survive_install_uninstall_and_compaction(self):
        ov, _ = traffic_overlay(seed=3)
        plane = DataPlane(ov, RuntimeConfig(seed=5, compact_threshold=0.01))
        plane.step()
        by_key = {
            key: int(plane._gid[row]) for key, row in plane._op_index.items()
        }
        ov.uninstall("q0")
        query, stats = random_query(25, PARAMS, name="q7", seed=55)
        ov.install(ov.integrated_optimizer().optimize(query, stats))
        for _ in range(3):
            plane.step()
        for key, row in plane._op_index.items():
            if key in by_key:
                assert int(plane._gid[row]) == by_key[key]
        # Fresh ops got fresh gids — no salt collision with the dead q0.
        q0_gids = {g for k, g in by_key.items() if k[0] == "q0"}
        q7_gids = {
            int(plane._gid[row])
            for key, row in plane._op_index.items()
            if key[0] == "q7"
        }
        assert not (q0_gids & q7_gids)
