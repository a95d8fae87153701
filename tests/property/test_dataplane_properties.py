"""Equivalence and conservation properties of the data-plane runtime.

The PR-1/PR-2 discipline: every vectorized kernel keeps a scalar
reference consuming the same RNG draws, pinned by equivalence tests.
For the data plane that means twin instances stepped through
``DataPlane.step`` (batched transport + kernels) and
``DataPlane.step_scalar`` (per-tuple heapq + per-key tables) must agree
tuple for tuple — including under churn, live migration, and
backpressure — and the conservation balance must hold at every tick.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.circuit import Circuit, Service
from repro.core.load_model import LoadModel
from repro.core.rewriting import replicate_operator
from repro.network.dynamics import ChurnProcess, HotspotEvent, LatencyDriftProcess, LoadProcess
from repro.network.topology import grid_topology
from repro.query.operators import ServiceKind, ServiceSpec
from repro.runtime import join_state
from repro.runtime.arena import CircuitArena
from repro.runtime.join_state import JoinState
from repro.runtime.oracle import KeyTables
from repro.runtime.dataplane import DataPlane, RuntimeConfig, _JOIN, _TICK_LIMIT
from repro.runtime.hashing import (
    filter_bucket as _filter_bucket,
    filter_bucket_int as _filter_bucket_int,
    pair_bucket as _pair_bucket,
    pair_bucket_int as _pair_bucket_int,
)
from repro.sbon.overlay import Overlay
from repro.sbon.simulator import Simulation, SimulationConfig
from repro.workloads.queries import WorkloadParams, random_query
from repro.workloads.scenarios import chaos_scenario, tenant_churn_scenario
from tests.property.test_arena_properties import (
    assert_pool_cycled,
    assert_simulations_agree,
    pool_log,
)
from tests.property.test_scaling_properties import join_circuit, make_overlay

PARAMS = WorkloadParams(
    num_producers=3, rate_bounds=(3.0, 8.0), selectivity_bounds=(0.2, 0.6)
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


def chaotic_simulation(seed=0, capacity=40.0, **runtime):
    overlay, pinned = traffic_overlay(seed)
    n = overlay.num_nodes
    plane = DataPlane(
        overlay, RuntimeConfig(seed=99, node_capacity=capacity, **runtime)
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


def assert_traffic_equal(rv, rs):
    """Works on both TrafficRecord (.usage) and TickRecord (.data_usage)."""
    assert (rv.emitted, rv.delivered, rv.dropped) == (rs.emitted, rs.delivered, rs.dropped)
    uv = rv.usage if hasattr(rv, "usage") else rv.data_usage
    us = rs.usage if hasattr(rs, "usage") else rs.data_usage
    assert uv == pytest.approx(us, rel=1e-9, abs=1e-6)
    assert rv.latency_p50 == pytest.approx(rs.latency_p50, abs=1e-9)
    assert rv.latency_p95 == pytest.approx(rs.latency_p95, abs=1e-9)
    assert rv.latency_p99 == pytest.approx(rs.latency_p99, abs=1e-9)


class TestHashParity:
    """The batched buckets and their per-tuple twins are the same hash."""

    def test_filter_bucket_matches_int_version(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 1 << 31, size=500)
        salts = rng.integers(0, 1 << 20, size=500)
        batched = _filter_bucket(keys, salts)
        for i in range(500):
            assert batched[i] == _filter_bucket_int(int(keys[i]), int(salts[i]))

    def test_pair_bucket_matches_int_version_and_is_symmetric(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 1 << 31, size=500)
        ta = rng.integers(0, 1 << 20, size=500)
        tb = rng.integers(0, 1 << 20, size=500)
        salts = rng.integers(0, 1 << 20, size=500)
        batched = _pair_bucket(keys, ta, tb, salts)
        swapped = _pair_bucket(keys, tb, ta, salts)
        np.testing.assert_array_equal(batched, swapped)
        for i in range(500):
            assert batched[i] == _pair_bucket_int(
                int(keys[i]), int(ta[i]), int(tb[i]), int(salts[i])
            )

    def test_buckets_are_uniform_enough(self):
        rng = np.random.default_rng(2)
        b = _filter_bucket(rng.integers(0, 1 << 40, size=20000), np.zeros(20000, dtype=np.int64))
        assert 0.0 <= b.min() and b.max() < 1.0
        assert abs(b.mean() - 0.5) < 0.02


class TestStepEquivalence:
    def test_plain_traffic_twins_agree(self):
        a = DataPlane(traffic_overlay(seed=4)[0], RuntimeConfig(seed=7))
        b = DataPlane(traffic_overlay(seed=4)[0], RuntimeConfig(seed=7))
        for _ in range(30):
            assert_traffic_equal(a.step(), b.step_scalar())
        assert a.accounting() == b.accounting()
        assert a.accounting()["balanced"]

    def test_twins_agree_under_churn_migration_and_backpressure(self):
        a, b = chaotic_simulation(seed=5), chaotic_simulation(seed=5)
        for _ in range(30):
            rv, rs = a.step(), b.step_scalar()
            assert (rv.migrations, rv.failures) == (rs.migrations, rs.failures)
            assert_traffic_equal(rv, rs)
        assert a.data_plane.accounting() == b.data_plane.accounting()
        assert a.data_plane.accounting()["balanced"]
        # Placements stayed twin-equal through live migrations too.
        for name, circuit in a.overlay.circuits.items():
            assert circuit.placement == b.overlay.circuits[name].placement

    def test_twins_agree_across_uninstall_and_install(self):
        ov_a, _ = traffic_overlay(seed=6)
        ov_b, _ = traffic_overlay(seed=6)
        a = DataPlane(ov_a, RuntimeConfig(seed=5))
        b = DataPlane(ov_b, RuntimeConfig(seed=5))
        for _ in range(10):
            assert_traffic_equal(a.step(), b.step_scalar())
        ov_a.uninstall("q1")
        ov_b.uninstall("q1")
        for _ in range(5):
            assert_traffic_equal(a.step(), b.step_scalar())
        assert a.dropped_uninstalled == b.dropped_uninstalled > 0
        query, stats = random_query(25, PARAMS, name="q9", seed=77)
        ov_a.install(ov_a.integrated_optimizer().optimize(query, stats))
        ov_b.install(ov_b.integrated_optimizer().optimize(query, stats))
        for _ in range(10):
            assert_traffic_equal(a.step(), b.step_scalar())
        assert a.accounting() == b.accounting()
        assert a.accounting()["balanced"]


def _zero_rate_circuit():
    c = Circuit(name="z")
    for sid, spec, host, producers in (
        ("a", ServiceSpec.relay(), 1, {"a"}),
        ("b", ServiceSpec.relay(), 2, {"b"}),
        ("f", ServiceSpec(ServiceKind.FILTER), 0, {"b"}),
        ("j", ServiceSpec.join(), 0, {"a", "b"}),
        ("k", ServiceSpec.relay(), 3, {"a", "b"}),
    ):
        c.add_service(Service(sid, spec, host, frozenset(producers)))
    c.add_link("a", "j", 8.0)  # port 0
    c.add_link("b", "f", 6.0)
    c.add_link("f", "j", 0.0)  # port 1
    c.add_link("j", "k", 0.0)
    return c


def _zero_selectivity_circuit():
    """A filter, an aggregate and a join, each fed at a positive rate and
    estimated to emit nothing: selectivity, aggregate factor and match
    probability all compile to 0.  Their zero-rate out-links meet at one
    three-port sink."""
    c = Circuit(name="s")
    for sid, spec, host, producers in (
        ("a", ServiceSpec.relay(), 1, {"a"}),
        ("b", ServiceSpec.relay(), 2, {"b"}),
        ("c", ServiceSpec.relay(), 4, {"c"}),
        ("f", ServiceSpec(ServiceKind.FILTER), 0, {"a"}),
        ("g", ServiceSpec(ServiceKind.AGGREGATE), 0, {"b"}),
        ("j", ServiceSpec.join(), 0, {"a", "c"}),
        ("k", ServiceSpec.relay(), 3, {"a", "b", "c"}),
    ):
        c.add_service(Service(sid, spec, host, frozenset(producers)))
    c.add_link("a", "f", 6.0)
    c.add_link("b", "g", 5.0)
    c.add_link("a", "j", 8.0)  # port 0
    c.add_link("c", "j", 4.0)  # port 1
    for sid in ("f", "g", "j"):
        c.add_link(sid, "k", 0.0)
    return c


def _keyless_split_circuit(window):
    """A join whose rates imply a key domain of 1 (every key is 0), split
    into 3 key-partitioned replicas: every tuple hashes to one replica."""
    c = Circuit(name="t")
    c.add_service(Service("s1", ServiceSpec.relay(), 1, frozenset({"a"})))
    c.add_service(Service("s2", ServiceSpec.relay(), 2, frozenset({"b"})))
    c.add_service(Service("j", ServiceSpec.join(), None, frozenset({"a", "b"})))
    c.add_service(Service("k", ServiceSpec.relay(), 3, frozenset({"a", "b"})))
    c.add_link("s1", "j", 4.0)
    c.add_link("s2", "j", 4.0)
    # 4 · 4 · (2w + 1) / out < 2, so the derived domain rounds to 1.
    c.add_link("j", "k", 12.0 * (2 * window + 1))
    c.assign("j", 0)
    rewrite = replicate_operator(c, "j", 3, placement=[0, 4, 8])
    assert rewrite.applied
    return rewrite.circuit


def _oracle_case(case):
    """(fast twin, oracle twin, per-tick hook, fixture check) of a case.

    Every case prices admission with the CPU-cost model, so join probe
    charges reach ``cpu_cost`` and admission reads the join state's
    counts.
    """
    cost = LoadModel()
    hook = None
    if case.startswith("chaos-seed"):
        a, b = (
            chaotic_simulation(seed=int(case[10:]), window=8, load_model=cost)
            for _ in range(2)
        )
        # A tiny pool compacts and grows constantly, with expiring
        # windows on both sides of every compaction.
        pool = pool_log(a.data_plane)

        def check():
            assert_pool_cycled(pool)
            assert a.data_plane.cpu_dropped_total > 0
            assert a.series.total_migrations() > 0

    elif case == "folded-slots":
        # The caller caps join slots at 8 (join domains are larger), so
        # distinct keys share chains and the walk must compare keys.
        a, b = (
            chaotic_simulation(seed=5, window=8, load_model=cost)
            for _ in range(2)
        )

        def check():
            table = a.data_plane._join
            pairs = np.unique(
                np.stack((table._slot[: table.top], table._key[: table.top])), axis=1
            )
            assert np.bincount(pairs[0]).max() >= 2, "no slot held two keys"
            assert a.data_plane.cpu_dropped_total > 0

    elif case == "window-0":
        a, b = (
            chaotic_simulation(seed=5, window=0, load_model=cost) for _ in range(2)
        )

        def check():
            assert a.data_plane.cpu_dropped_total > 0
            assert a.series.total_delivered() > 0

    elif case == "all-uninstalled":
        a, b = (chaotic_simulation(seed=5, load_model=cost) for _ in range(2))

        def hook(tick):
            if tick == 9:
                for sim in (a, b):
                    for name in list(sim.overlay.circuits):
                        sim.overlay.uninstall(name)

        def check():
            assert a.data_plane.dropped_uninstalled > 0
            assert a.data_plane.accounting()["in_flight"] == 0
            assert a.series.records[-1].emitted == 0

    elif case == "tick-at-int32-limit":
        a, b = (chaotic_simulation(seed=5, load_model=cost) for _ in range(2))
        plane = a.data_plane
        last = _TICK_LIMIT - plane.config.window - int(plane._slack.max())
        for sim in (a, b):
            sim.data_plane.tick = last - 40  # the 40th tick is the last legal one

        def check():
            assert plane.tick == last
            with pytest.raises(OverflowError, match="int32"):
                a.step()

    elif case == "zero-rate-links":
        # A spec-less filter whose out-link is estimated at rate 0 feeds
        # port 1 of a join whose own out-link is 0-rate too: the filter
        # passes nothing, the join holds port-0 state it never matches,
        # and the join's node is over capacity.
        cfg = RuntimeConfig(seed=3, node_capacity=6.0, load_model=cost)
        a, b = (
            Simulation(
                overlay,
                config=SimulationConfig(reopt_interval=0),
                data_plane=DataPlane(overlay, cfg),
            )
            for overlay in (make_overlay(_zero_rate_circuit()) for _ in range(2))
        )

        def check():
            plane = a.data_plane
            stats = plane.link_stats()
            assert stats[("z", "b", "f")]["tuples"] > 0
            assert stats[("z", "f", "j")]["tuples"] == 0
            assert stats[("z", "j", "k")]["tuples"] == 0
            assert plane.state_rows()[:, 0].sum() > 0
            assert plane.cpu_dropped_total > 0

    elif case == "zero-selectivity-links":
        cfg = RuntimeConfig(seed=3, node_capacity=20.0, load_model=cost)
        a, b = (
            Simulation(
                overlay,
                config=SimulationConfig(reopt_interval=0),
                data_plane=DataPlane(overlay, cfg),
            )
            for overlay in (make_overlay(_zero_selectivity_circuit()) for _ in range(2))
        )

        def check():
            plane = a.data_plane
            op = {sid: plane._op_index[("s", sid)] for sid in "fgjk"}
            assert plane._op_sel[op["f"]] == 0.0
            assert plane._op_factor[op["g"]] == 0.0
            assert plane._op_pmatch[op["j"]] == 0.0
            assert plane._in_deg[op["k"]] == 3
            stats = plane.link_stats()
            for src, dst in (("a", "f"), ("b", "g"), ("a", "j"), ("c", "j")):
                assert stats[("s", src, dst)]["tuples"] > 0
            for src in "fgj":
                assert stats[("s", src, "k")]["tuples"] == 0
            # The join held state on both sides, so its arrivals probed.
            assert (plane.state_rows()[op["j"]] > 0).all()
            assert plane.sink_delivered == 0
            assert plane.cpu_dropped_total > 0

    elif case == "keyless-split":
        cfg = RuntimeConfig(seed=3, window=2, node_capacity=60.0, load_model=cost)
        a, b = (
            Simulation(
                overlay,
                config=SimulationConfig(reopt_interval=0),
                data_plane=DataPlane(overlay, cfg),
            )
            for overlay in (
                make_overlay(_keyless_split_circuit(cfg.window)) for _ in range(2)
            )
        )

        def check():
            plane = a.data_plane
            assert (plane._op_domain == 1.0).all()
            stats = plane.link_stats()
            for src in ("s1", "s2"):
                carried = [stats[("t", src, f"j@r{i}")]["tuples"] for i in range(3)]
                assert sorted(carried)[:2] == [0.0, 0.0] and max(carried) > 0
            assert plane._in_deg[plane._op_index[("t", "j@merge")]] == 3
            assert plane.sink_delivered > 0
            assert plane.cpu_dropped_total > 0

    else:  # all-dead-reliable: no churn process, so nothing evacuates
        cfg = RuntimeConfig(
            seed=7, node_capacity=40.0, reliable=True, load_model=cost
        )
        a, b = (
            Simulation(
                overlay,
                config=SimulationConfig(reopt_interval=0),
                data_plane=DataPlane(overlay, cfg),
            )
            for overlay in (traffic_overlay(seed=4)[0] for _ in range(2))
        )

        def hook(tick):
            if tick in (3, 13):  # dead from tick 5, alive from tick 15
                for sim in (a, b):
                    n = sim.overlay.num_nodes
                    sim.overlay.apply_liveness(np.full(n, tick == 13))

        def check():
            assert max(r.buffered for r in a.series.records) > 0
            assert a.data_plane.redelivered > 0

    return a, b, hook, check


class TestScalarOracle:
    """The batched path — slot-table join state and its live-row
    counts, the admission prices read from them, capacity gate — is
    pinned directly to the per-tuple scalar oracle on every
    ``TRAFFIC_FIELDS`` entry (``tests/property/test_arena_properties.py``):
    under the full chaos mix (churn, live migration, capacity
    backpressure, window expiry) on two seeds, once more with join
    slots capped at 8 so distinct keys share chains (no bench workload
    folds slots), and on seven hostile inputs — among them zero-rate
    links into and out of a join, a filter, an aggregate and a join
    that each compile to emit nothing (zero selectivity), a k-way split
    of a stream whose keys are all 0, and one run right up to the int32
    tick columns' limit, where the next step() must refuse.
    """

    @pytest.mark.parametrize(
        "case",
        [
            "chaos-seed5",
            "chaos-seed7",
            "folded-slots",
            "window-0",
            "all-uninstalled",
            "all-dead-reliable",
            "tick-at-int32-limit",
            "zero-rate-links",
            "zero-selectivity-links",
            "keyless-split",
        ],
    )
    def test_step_matches_scalar_oracle(self, case, monkeypatch):
        if case == "folded-slots":
            monkeypatch.setattr(join_state, "_SLOT_CAP", 8)
        a, b, hook, check = _oracle_case(case)
        assert_simulations_agree(a, b, ticks=40, between=hook)
        check()


class TestJoinOracle:
    """The windowed join against a brute-force oracle that shares no
    code with the runtime: every cross-side pair with equal key and
    ``|ta - tb| <= w`` is emitted exactly once, as ``(key, max(ta, tb))``.

    Unless a test places them elsewhere, every service sits on node 0,
    so nothing is delayed and every pair completes within the run; tap
    sinks on both sources log every input tuple.  Rates give key domain
    8 and a match probability of exactly 1, so key equality alone
    decides a match.
    """

    # On the 3x3 grid: a is 1 tick from the join, b 2 ticks, and the
    # join 2 ticks from the sink; each tap shares its source's node.
    DELAYED = {"a": 1, "tapa": 1, "b": 8, "tapb": 8, "join": 4, "sink": 2}

    @staticmethod
    def _circuit(window, hosts=None):
        hosts = hosts or {}
        c = Circuit(name="o")
        for sid, spec, producers in (
            ("a", ServiceSpec.relay(), {"a"}),
            ("b", ServiceSpec.relay(), {"b"}),
            ("join", ServiceSpec.join(), {"a", "b"}),
            ("sink", ServiceSpec.relay(), {"a", "b"}),
            ("tapa", ServiceSpec.relay(), {"a"}),
            ("tapb", ServiceSpec.relay(), {"b"}),
        ):
            c.add_service(Service(sid, spec, hosts.get(sid, 0), frozenset(producers)))
        c.add_link("a", "join", 2.0)  # port 0
        c.add_link("b", "join", 2.0)  # port 1
        c.add_link("join", "sink", 4.0 * (2 * window + 1) / 8)
        c.add_link("a", "tapa", 2.0)
        c.add_link("b", "tapb", 2.0)
        return c

    @staticmethod
    def _run(circuit, path, ticks, **config):
        plane = DataPlane(make_overlay(circuit), RuntimeConfig(**config))
        assert plane._op_pmatch[plane._kind == _JOIN].tolist() == [1.0]
        plane.sink_log = []
        for _ in range(ticks):
            getattr(plane, path)()
        logged = {"sink": [], "tapa": [], "tapb": []}
        for sid, key, ts, _ in plane.sink_log:
            logged[sid].append((key, ts))
        return plane, logged

    @staticmethod
    def _pairs(logged, window, horizon):
        """Brute force: every in-window equal-key cross-tap pair whose
        output timestamp is at most ``horizon``."""
        return Counter(
            (ka, max(ta, tb))
            for ka, ta in logged["tapa"]
            for kb, tb in logged["tapb"]
            if ka == kb and abs(ta - tb) <= window and max(ta, tb) <= horizon
        )

    @pytest.mark.parametrize("path", ["step", "step_scalar"])
    @pytest.mark.parametrize("window", [0, 1, 3, 8])
    def test_join_output_equals_brute_force_pairs(self, window, path):
        for seed in (0, 1):
            _, logged = self._run(
                self._circuit(window), path, 150, window=window, seed=seed
            )
            expected = self._pairs(logged, window, horizon=150)
            assert sum(expected.values()) > 0
            assert Counter(logged["sink"]) == expected

    @pytest.mark.parametrize("path", ["step", "step_scalar"])
    @pytest.mark.parametrize("window", [1, 3])
    def test_delayed_partners_kept_by_derived_slack(self, window, path):
        # b's tuples reach the join a tick after a's: state must outlive
        # the window by the path delay, or late partners find nothing.
        plane, logged = self._run(
            self._circuit(window, self.DELAYED), path, 200, window=window, seed=2
        )
        assert plane._slack[plane._kind == _JOIN].tolist() == [2]
        horizon = 190  # every pair stamped by then reached the sink
        expected = self._pairs(logged, window, horizon)
        assert sum(expected.values()) > 0
        sink = Counter(e for e in logged["sink"] if e[1] <= horizon)
        assert sink == expected

    @pytest.mark.parametrize("path", ["step", "step_scalar"])
    def test_zero_slack_loses_delayed_partners(self, path):
        window = 3
        _, logged = self._run(
            self._circuit(window, self.DELAYED),
            path,
            200,
            window=window,
            seed=2,
            eviction_slack=0,
        )
        expected = self._pairs(logged, window, horizon=190)
        sink = Counter(e for e in logged["sink"] if e[1] <= 190)
        assert not sink - expected  # nothing outside the window
        assert sum(sink.values()) < sum(expected.values())


class TestStatelessOperatorOracles:
    """Filters and aggregates against counts taken from tap sinks, with
    every service on node 0 so each tuple is processed in its tick."""

    @staticmethod
    def _run(circuit, path, ticks, **config):
        plane = DataPlane(make_overlay(circuit), RuntimeConfig(**config))
        plane.sink_log = []
        for _ in range(ticks):
            getattr(plane, path)()
        return plane

    @pytest.mark.parametrize("path", ["step", "step_scalar"])
    @pytest.mark.parametrize("factor", [0.1, 0.25, 0.5, 0.9])
    def test_aggregate_emits_factor_of_inputs_within_one(self, factor, path):
        # Credit carried across ticks: after n inputs the aggregate has
        # emitted floor(factor * n) tuples, never a whole tuple off.
        c = Circuit(name="g")
        c.add_service(Service("a", ServiceSpec.relay(), 0, frozenset(("a",))))
        c.add_service(Service("agg", ServiceSpec.aggregate(), 0, frozenset(("a",))))
        c.add_service(Service("sink", ServiceSpec.relay(), 0, frozenset(("a",))))
        c.add_link("a", "agg", 4.0)
        c.add_link("agg", "sink", 4.0 * factor)
        plane = self._run(c, path, 300, seed=3)
        stats = plane.link_stats()
        n_in = stats[("g", "a", "agg")]["tuples"]
        n_out = stats[("g", "agg", "sink")]["tuples"]
        assert n_in > 1000
        assert abs(n_out - factor * n_in) <= 1
        assert plane.accounting()["delivered"] == n_out

    @pytest.mark.parametrize("path", ["step", "step_scalar"])
    def test_filter_verdict_is_per_key(self, path):
        # The verdict hashes the key alone: a key that passes once
        # passes every time, and the passing share of the key domain
        # realizes the selectivity.
        window = 200  # non-join key domain is 2 * window + 1 = 401
        c = Circuit(name="f")
        c.add_service(Service("a", ServiceSpec.relay(), 0, frozenset(("a",))))
        c.add_service(Service("filt", ServiceSpec.filter(0.3), 0, frozenset(("a",))))
        c.add_service(Service("sink", ServiceSpec.relay(), 0, frozenset(("a",))))
        c.add_service(Service("tapa", ServiceSpec.relay(), 0, frozenset(("a",))))
        c.add_link("a", "filt", 5.0)
        c.add_link("filt", "sink", 1.5)
        c.add_link("a", "tapa", 5.0)
        plane = self._run(c, path, 300, window=window, seed=4)
        logged = {"sink": [], "tapa": []}
        for sid, key, ts, _ in plane.sink_log:
            logged[sid].append((key, ts))
        assert all(0 <= key < 2 * window + 1 for key, _ in logged["tapa"])
        passed = {key for key, _ in logged["sink"]}
        assert Counter(logged["sink"]) == Counter(
            e for e in logged["tapa"] if e[0] in passed
        )
        share = len(logged["sink"]) / len(logged["tapa"])
        assert share == pytest.approx(0.3, abs=0.08)
        assert plane.accounting()["delivered"] == len(plane.sink_log)


LOAD_MODELS = pytest.mark.parametrize(
    "model", [LoadModel(), LoadModel.unit()], ids=["cost", "unit"]
)


class TestLedgerRecount:
    """The slot table counts its own live rows: ``state_rows()`` equals a
    full recount of live join state (``_state_counts()``) at the end of
    every tick, under the CPU-cost model and the unit model alike (the
    unit model prices no probes; the counts are kept all the same).  The
    arena's host column, sources and segment order are recounted too.

    Only an arena compaction recounts: ``JoinState.remap`` runs exactly
    once per compaction and never otherwise, so installs and uninstalls
    stay O(tenant)."""

    @staticmethod
    def _recounts(monkeypatch):
        """Log ``JoinState.remap`` calls and arena compactions, by name."""
        log = {"remap": 0, "compaction": 0, "tombstone": 0}
        for cls, name, entry in (
            (JoinState, "remap", "remap"),
            (KeyTables, "remap", "remap"),
            (CircuitArena, "apply_compaction", "compaction"),
            (CircuitArena, "tombstone", "tombstone"),
        ):
            method = getattr(cls, name)

            def counted(self, *args, _method=method, _entry=entry, **kwargs):
                log[_entry] += 1
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)
        return log

    @staticmethod
    def _recount_structure(plane):
        """The arena's structure, recounted from the overlay and the link
        table: each live segment's host rows are its circuit's placement,
        the sources are the live ops with no in-link and an out-link, in
        row order, and the segments name the circuits in overlay order."""
        arena = plane._arena
        host = plane._host_array()
        for seg in arena.segments.values():
            np.testing.assert_array_equal(
                host[seg.op_base : seg.op_base + seg.num_ops],
                [seg.circuit.placement[sid] for sid in seg.sids],
            )
        links = np.flatnonzero(arena.link_alive)
        has_in = np.zeros(arena.num_ops, dtype=bool)
        has_out = np.zeros(arena.num_ops, dtype=bool)
        has_in[plane._link_dst[links]] = True
        has_out[plane._link_src_op[links]] = True
        np.testing.assert_array_equal(
            plane._src_ops, np.flatnonzero(~has_in & has_out & arena.op_alive)
        )
        assert list(arena.segments) == list(plane.overlay.circuits)
        assert all(
            seg.circuit is circuit
            for seg, circuit in zip(
                arena.segments.values(), plane.overlay.circuits.values()
            )
        )

    @staticmethod
    def _run(plane, step, ticks, between=None):
        """Step ``ticks`` times, checking the counts and the arena's
        structure after every tick; returns the most rows any tick ended
        with."""
        most = 0.0
        for tick in range(ticks):
            step()
            rows = plane.state_rows()
            np.testing.assert_array_equal(rows, plane._state_counts())
            TestLedgerRecount._recount_structure(plane)
            most = max(most, rows.sum())
            if between is not None:
                between(tick)
        return most

    @LOAD_MODELS
    def test_counts_equal_recount_under_chaos(self, model, monkeypatch):
        log = self._recounts(monkeypatch)
        sim = chaotic_simulation(seed=5, window=8, load_model=model)
        pool = pool_log(sim.data_plane)
        assert self._run(sim.data_plane, sim.step, 40) > 0
        assert_pool_cycled(pool)
        assert log["remap"] == log["compaction"] == 0

    @LOAD_MODELS
    def test_counts_equal_recount_through_scale_events(self, model, monkeypatch):
        log = self._recounts(monkeypatch)
        overlay = make_overlay(join_circuit())
        plane = DataPlane(
            overlay, RuntimeConfig(seed=7, node_capacity=30.0, load_model=model)
        )

        def rescale(tick):
            if tick in (9, 19):  # split into 3 key-range replicas, then merge
                k = 3 if tick == 9 else 1
                rewrite = replicate_operator(overlay.circuits["t"], "j", k)
                overlay.replace_circuit(rewrite.circuit)

        assert self._run(plane, plane.step, 30, rescale) > 0
        # Each scale event is a segment swap, which compacts: one
        # recount apiece.
        assert plane.recompiles == 2
        assert log["remap"] == log["compaction"] == 2

    @staticmethod
    def _churn(model, monkeypatch, replace_at=None, oracle=False, alternate=False):
        """24 churn ticks at the default compaction threshold (so most
        uninstalls only tombstone); optionally swap the oldest (already
        compiled) tenant for an equal copy under its name after tick
        ``replace_at``.  With ``alternate``, ticks alternate a departure
        alone and an arrival alone, so every other sync only uninstalls.  With ``oracle``, a twin scenario steps through
        ``step_scalar()`` beside it: its ``state_rows()`` must equal the
        batched plane's after every tick, and after each of its arena
        compactions every key its tables hold must name a live op (the
        state of tombstoned ops lasts until a compaction, no longer).
        Returns the batched plane."""
        log = TestLedgerRecount._recounts(monkeypatch)
        scenarios = [
            tenant_churn_scenario(num_nodes=20, initial_circuits=5, seed=11)
            for _ in range(2 if oracle else 1)
        ]
        scenario = scenarios[0]
        plane = scenario.data_plane
        for s in scenarios:
            s.data_plane.set_load_model(model)
        step = scenario.simulation.step
        checked = []
        if oracle:
            twin = scenarios[1]
            arena = twin.data_plane._arena
            compact = arena.apply_compaction

            def compact_and_check():
                compact()
                ops = np.array(
                    [op for op, _side, _key in twin.data_plane._join.tables],
                    dtype=np.int64,
                )
                assert ((ops >= 0) & (ops < arena.op_alive.size)).all()
                assert arena.op_alive[ops].all()
                checked.append(ops.size)

            monkeypatch.setattr(arena, "apply_compaction", compact_and_check)

            def step():
                scenario.simulation.step()
                twin.simulation.step_scalar()
                np.testing.assert_array_equal(
                    twin.data_plane.state_rows(), plane.state_rows()
                )

        def between(tick):
            for s in scenarios:
                if alternate:
                    s.churn_tick(installs=tick % 2, uninstalls=1 - tick % 2)
                else:
                    s.churn_tick()
                if tick == replace_at:
                    oldest = s.overlay.circuits[s.installed[0]]
                    s.overlay.replace_circuit(oldest.copy())

        assert TestLedgerRecount._run(plane, step, 24, between) > 0
        if oracle:
            assert checked and max(checked) > 0
        assert plane.dropped_uninstalled > 0
        assert log["tombstone"] > log["compaction"] >= 1
        assert log["remap"] == log["compaction"]
        return plane

    @pytest.mark.parametrize(
        "model, oracle",
        [
            (LoadModel(), False),
            (LoadModel.unit(), False),
            (LoadModel(), True),
            (LoadModel.unit(), True),
        ],
        ids=["cost", "unit", "cost-oracle", "unit-oracle"],
    )
    def test_counts_equal_recount_under_tenant_churn(self, model, oracle, monkeypatch):
        plane = self._churn(model, monkeypatch, oracle=oracle)
        assert plane.recompiles == 0

    @LOAD_MODELS
    def test_same_name_replacement_equals_recount(self, model, monkeypatch):
        plane = self._churn(model, monkeypatch, replace_at=11)
        assert plane.recompiles == 1

    @LOAD_MODELS
    def test_uninstall_only_syncs_equal_recount(self, model, monkeypatch):
        plane = self._churn(model, monkeypatch, alternate=True)
        assert plane.recompiles == 0


class _FoldCheck:
    """Checks a plane's ledgers against its tick records after every tick.

    Wraps the plane's two step methods.  Each cumulative ledger's delta
    since the first tick must equal the sum of the ticks' records —
    counts exactly, the CPU costs bit for bit (the default coefficients
    are dyadic), usage to 1e-9 — and each per-node ledger the sum of
    the published per-node tick arrays.  The published per-link tick
    counts are summed per link key, for :meth:`check_links`."""

    LEDGERS = {
        "emitted": "emitted",
        "sink_delivered": "delivered",
        "processed": "processed",
        "dropped": "dropped",
        "dropped_shed": "shed",
        "redelivered": "redelivered",
        "recompiles": "recompiles",
        "cpu_cost_total": "cpu_cost",
        "cpu_dropped_total": "cpu_dropped",
    }
    NODES = {
        "processed_by_node": "tick_node_processed",
        "dropped_by_node": "tick_node_drops",
        "cpu_by_node": "tick_node_cpu",
    }

    def __init__(self, plane):
        self.plane = plane
        self.start = {name: getattr(plane, name) for name in self.LEDGERS}
        self.start_usage = plane._usage_total
        self.start_nodes = {name: getattr(plane, name).copy() for name in self.NODES}
        self.sums = dict.fromkeys(self.LEDGERS.values(), 0)
        self.usage = 0.0
        self.nodes = {name: 0 for name in self.NODES}
        self.links = Counter()
        for name in ("step", "step_scalar"):
            setattr(plane, name, self._checked(getattr(plane, name)))

    def _checked(self, step):
        def checked():
            record = step()
            self._check(record)
            return record

        return checked

    def _check(self, record):
        plane = self.plane
        for ledger, field in self.LEDGERS.items():
            self.sums[field] += getattr(record, field)
            assert getattr(plane, ledger) - self.start[ledger] == self.sums[field], ledger
        self.usage += record.usage
        assert plane._usage_total - self.start_usage == pytest.approx(
            self.usage, rel=1e-9, abs=1e-9
        )
        for ledger, published in self.NODES.items():
            self.nodes[ledger] = self.nodes[ledger] + getattr(plane, published)
            np.testing.assert_array_equal(
                getattr(plane, ledger) - self.start_nodes[ledger], self.nodes[ledger]
            )
        for key, n in zip(plane.link_keys(), plane.tick_link_tuples):
            self.links[key] += int(n)

    def check_links(self):
        """Every link key's ``link_stats()`` tuples equal its published
        tick counts summed over the run; returns the keys that carried
        traffic and are no longer live (uninstalled or swapped out)."""
        stats = self.plane.link_stats()
        assert {k: v["tuples"] for k, v in stats.items() if v["tuples"]} == {
            k: float(n) for k, n in self.links.items() if n
        }
        return {k for k, n in self.links.items() if n} - set(self.plane.link_keys())


class TestLedgerFold:
    """The ledgers are the fold of the tick records, on both twins, under
    chaos (reliable transport, capacity, shed limits, churn), rolling
    outages that overflow the retransmit buffer, and the tenant churn of
    :class:`TestLedgerRecount` with and without a same-name replacement;
    ``link_stats()`` keeps the counts of links whose circuit was
    uninstalled or swapped."""

    @pytest.mark.parametrize("scalar", [False, True], ids=["fast", "oracle"])
    def test_ledgers_fold_the_ticks_under_chaos(self, scalar):
        sim = chaotic_simulation(seed=5, reliable=True)
        plane = sim.data_plane
        fold = _FoldCheck(plane)
        for node in range(0, plane.overlay.num_nodes, 3):
            plane.set_shed_limit(node, 12.0)
        for _ in range(40):
            sim.step_scalar() if scalar else sim.step()
        fold.check_links()
        assert plane.dropped_capacity > 0 and plane.dropped_shed > 0

    @pytest.mark.parametrize("scalar", [False, True], ids=["fast", "oracle"])
    def test_ledgers_fold_the_ticks_across_outages(self, scalar):
        """Rolling outages of the unpinned hosts fill a small retransmit
        buffer past its bound, and the returning hosts drain it."""
        overlay, pinned = traffic_overlay(seed=4)
        plane = DataPlane(
            overlay,
            RuntimeConfig(
                seed=7, reliable=True, retransmit_buffer=32, node_capacity=45.0
            ),
        )
        fold = _FoldCheck(plane)
        hosts = sorted(
            {c.host_of(s) for c in overlay.circuits.values() for s in c.unpinned_ids()}
            - pinned
        )
        for node in hosts[1::3]:
            plane.set_shed_limit(node, 20.0)
        for tick in range(35):
            alive = np.ones(overlay.num_nodes, dtype=bool)
            if (tick // 7) % 2:
                alive[hosts[(tick // 7) % len(hosts) :: 2]] = False
            overlay.apply_liveness(alive)
            plane.step_scalar() if scalar else plane.step()
        fold.check_links()
        for ledger in (
            "dropped_capacity", "dropped_shed", "dropped_overflow", "redelivered",
        ):
            assert getattr(plane, ledger) > 0, ledger

    @pytest.mark.parametrize("scalar", [False, True], ids=["fast", "oracle"])
    @pytest.mark.parametrize("replace_at", [None, 11], ids=["churn", "swap"])
    def test_ledgers_fold_the_ticks_under_tenant_churn(self, scalar, replace_at):
        scenario = tenant_churn_scenario(num_nodes=20, initial_circuits=5, seed=11)
        sim, plane = scenario.simulation, scenario.data_plane
        fold = _FoldCheck(plane)
        for tick in range(24):
            sim.step_scalar() if scalar else sim.step()
            scenario.churn_tick()
            if tick == replace_at:
                oldest = scenario.overlay.circuits[scenario.installed[0]]
                scenario.overlay.replace_circuit(oldest.copy())
        assert fold.check_links()
        assert plane.dropped_uninstalled > 0
        assert plane.recompiles == (replace_at is not None)


class TestConservation:
    def test_no_tuple_lost_under_chaos(self):
        scenario = chaos_scenario(num_nodes=30, num_circuits=3, node_capacity=40.0, seed=3)
        sim = scenario.simulation
        for _ in range(50):
            sim.step()
            acct = scenario.data_plane.accounting()
            assert acct["balanced"], acct
        assert sim.series.total_failures() > 0
        assert sim.series.total_migrations() > 0
        assert scenario.data_plane.dropped > 0
        assert sim.series.total_delivered() > 0

    def test_lossless_without_churn_or_capacity(self):
        overlay, _ = traffic_overlay(seed=8)
        plane = DataPlane(overlay, RuntimeConfig(seed=1))
        for _ in range(40):
            plane.step()
        acct = plane.accounting()
        assert acct["balanced"]
        assert acct["dropped"] == 0
        assert acct["sent"] == acct["processed"] + acct["in_flight"]


class TestDeterminism:
    def test_same_seed_same_series(self):
        a = DataPlane(traffic_overlay(seed=9)[0], RuntimeConfig(seed=13))
        b = DataPlane(traffic_overlay(seed=9)[0], RuntimeConfig(seed=13))
        for _ in range(20):
            assert a.step() == b.step()

    def test_different_seed_differs(self):
        a = DataPlane(traffic_overlay(seed=9)[0], RuntimeConfig(seed=13))
        b = DataPlane(traffic_overlay(seed=9)[0], RuntimeConfig(seed=14))
        records_a = [a.step() for _ in range(10)]
        records_b = [b.step() for _ in range(10)]
        assert any(ra.emitted != rb.emitted for ra, rb in zip(records_a, records_b))
