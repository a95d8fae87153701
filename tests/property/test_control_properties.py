"""Equivalence properties of the control plane and reliable transport.

Same discipline as the data-plane properties: every vectorized path
keeps a scalar reference consuming identical inputs, and twin instances
stepped through either path must agree exactly — here extended to the
retransmit buffer (tuples bound to failed nodes), the controller's
estimator banks and decisions, and the slot-table join state (whose
compaction point and pool size must be unobservable).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import ControlConfig, Controller, KeyedRateEstimator, RateEstimator
from repro.core.load_model import LoadModel
from repro.runtime import DataPlane, RuntimeConfig
from repro.sbon.simulator import Simulation, SimulationConfig
from repro.workloads.scenarios import selectivity_drift_scenario
from tests.property.test_arena_properties import assert_pool_cycled, pool_log
from tests.property.test_dataplane_properties import (
    assert_traffic_equal,
    traffic_overlay,
)


def assert_control_fields_equal(rv, rs):
    assert (rv.shed, rv.redelivered, rv.buffered) == (
        rs.shed, rs.redelivered, rs.buffered,
    )


def outage_mask(num_nodes, hosts, tick):
    """Deterministic rolling outage over the given hosts."""
    mask = np.ones(num_nodes, dtype=bool)
    if hosts and (tick // 7) % 2 == 1:
        start = (tick // 7) % len(hosts)
        mask[hosts[start::2]] = False
    return mask


def unpinned_hosts(overlay, pinned):
    return sorted(
        {c.host_of(s) for c in overlay.circuits.values() for s in c.unpinned_ids()}
        - pinned
    )


class TestReliableTwins:
    def test_twins_agree_across_outages(self):
        cfg = RuntimeConfig(seed=7, reliable=True, retransmit_buffer=1 << 14)
        ov_a, pinned = traffic_overlay(seed=4)
        ov_b, _ = traffic_overlay(seed=4)
        a, b = DataPlane(ov_a, cfg), DataPlane(ov_b, cfg)
        hosts = unpinned_hosts(ov_a, pinned)
        for tick in range(45):
            mask = outage_mask(ov_a.num_nodes, hosts, tick)
            ov_a.apply_liveness(mask)
            ov_b.apply_liveness(mask)
            rv, rs = a.step(), b.step_scalar()
            assert_traffic_equal(rv, rs)
            assert_control_fields_equal(rv, rs)
            assert a.accounting()["balanced"], a.accounting()
            assert b.accounting()["balanced"], b.accounting()
        assert a.accounting() == b.accounting()
        assert a.redelivered == b.redelivered > 0

    def test_bounded_buffer_overflow_twins_agree(self):
        cfg = RuntimeConfig(seed=7, reliable=True, retransmit_buffer=8)
        ov_a, pinned = traffic_overlay(seed=4)
        ov_b, _ = traffic_overlay(seed=4)
        a, b = DataPlane(ov_a, cfg), DataPlane(ov_b, cfg)
        hosts = unpinned_hosts(ov_a, pinned)
        mask = np.ones(ov_a.num_nodes, dtype=bool)
        mask[hosts] = False
        for tick in range(25):
            if tick == 5:
                ov_a.apply_liveness(mask)
                ov_b.apply_liveness(mask)
            rv, rs = a.step(), b.step_scalar()
            assert_traffic_equal(rv, rs)
            assert_control_fields_equal(rv, rs)
            assert a.accounting()["balanced"]
        assert a.dropped_overflow == b.dropped_overflow > 0
        assert a.accounting() == b.accounting()

    def test_reliable_uninstall_drops_buffered_with_accounting(self):
        cfg = RuntimeConfig(seed=5, reliable=True)
        ov_a, pinned = traffic_overlay(seed=6)
        ov_b, _ = traffic_overlay(seed=6)
        a, b = DataPlane(ov_a, cfg), DataPlane(ov_b, cfg)
        hosts = unpinned_hosts(ov_a, pinned)
        mask = np.ones(ov_a.num_nodes, dtype=bool)
        mask[hosts] = False
        ov_a.apply_liveness(mask)
        ov_b.apply_liveness(mask)
        for _ in range(8):
            assert_traffic_equal(a.step(), b.step_scalar())
        assert a.accounting()["buffered"] > 0
        ov_a.uninstall("q1")
        ov_b.uninstall("q1")
        for _ in range(5):
            assert_traffic_equal(a.step(), b.step_scalar())
        assert a.dropped_uninstalled == b.dropped_uninstalled > 0
        assert a.accounting() == b.accounting()
        assert a.accounting()["balanced"]


class TestJoinStateLayout:
    """The slot table's compaction point is unobservable.

    Run under the CPU-cost model with binding capacity, so the probe
    charges and the admission prices, read from the table's own
    live-row counts, see every compaction and growth.
    """

    @pytest.mark.parametrize("capacity", [16, 1024, 1 << 20])
    def test_compaction_point_never_changes_results(self, capacity):
        cfg = RuntimeConfig(
            seed=3, window=30, node_capacity=40.0, load_model=LoadModel()
        )
        reference = DataPlane(traffic_overlay(seed=11)[0], cfg)
        tuned = DataPlane(traffic_overlay(seed=11)[0], cfg)
        pool = pool_log(tuned, capacity)
        for _ in range(25):
            rv, rs = tuned.step(), reference.step()
            assert rv == rs
        assert tuned.accounting() == reference.accounting()
        assert tuned.cpu_dropped_total > 0
        # The capacity took effect: small pools compacted and grew, the
        # huge one never had to.
        compacted = any(top for top, _, _ in pool)
        assert compacted == (capacity < 1 << 20)
        if capacity == 16:
            assert_pool_cycled(pool)

    def test_layout_matches_scalar_reference_with_large_windows(self):
        cfg = RuntimeConfig(
            seed=9, window=40, node_capacity=40.0, load_model=LoadModel()
        )
        a = DataPlane(traffic_overlay(seed=12)[0], cfg)
        b = DataPlane(traffic_overlay(seed=12)[0], cfg)
        pool = pool_log(a, 8)  # force frequent compactions mid-tick
        for _ in range(30):
            assert_traffic_equal(a.step(), b.step_scalar())
        assert a.accounting() == b.accounting()
        assert a.accounting()["balanced"]
        assert_pool_cycled(pool)


# Integer keys alias what a keys=None call observes; the tuple is a
# link-shaped key as the controller passes them.
KEY_POOL = (0, 1, 2, "a", "b", ("c0", "src", "sink"))


@st.composite
def observation_runs(draw):
    """(alpha, window, [(keys or None, values), ...]).

    Keyed calls reuse a few list objects, as the controller reuses its
    ``link_keys()`` list, so the estimators' per-list caches are hit; a
    list may repeat a key (aliased links), leave some out, or hold keys
    no earlier call used.
    """
    alpha = draw(st.floats(0.01, 1.0))
    window = draw(st.integers(1, 6))
    lists = draw(
        st.lists(
            st.lists(st.sampled_from(KEY_POOL), max_size=6), min_size=1, max_size=4
        )
    )
    calls = []
    for _ in range(draw(st.integers(1, 20))):
        pick = draw(st.integers(-1, len(lists) - 1))
        keys = None if pick < 0 else lists[pick]
        n = draw(st.integers(0, 5)) if keys is None else len(keys)
        values = draw(st.lists(st.floats(0.0, 50.0), min_size=n, max_size=n))
        calls.append((keys, np.asarray(values, dtype=float)))
    return alpha, window, calls


def assert_bits_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes(), (a, b)


class TestEstimatorTwins:
    @given(observation_runs())
    @settings(max_examples=150, deadline=None)
    def test_every_answer_bit_equal_after_every_call(self, run):
        alpha, window, calls = run
        fast = RateEstimator(alpha, window)
        keyed = KeyedRateEstimator(alpha, window)
        probe = list(KEY_POOL) + ["never"]
        for keys, values in calls:
            fast.observe(values, keys)
            keyed.observe(values, keys)
            assert fast.keys() == keyed.keys()
            assert fast.num_keys == keyed.num_keys
            assert_bits_equal(fast.rates(), keyed.rates())
            assert_bits_equal(fast.rates(probe), keyed.rates(probe))
            assert_bits_equal(fast.seen_counts(probe), keyed.seen_counts(probe))
            for q in (0.0, 0.5, 0.9, 1.0):
                assert_bits_equal(fast.quantile(q), keyed.quantile(q))
                assert_bits_equal(fast.quantile(q, probe), keyed.quantile(q, probe))
        for key in probe:
            assert fast.rate(key) == keyed.rate(key)
            assert fast.seen(key) == keyed.seen(key)


class TestControllerTwins:
    def test_controller_decisions_identical_across_paths(self):
        cfg = RuntimeConfig(seed=7, reliable=True, node_capacity=45.0)
        ctl_cfg = ControlConfig(
            warmup=4, calibrate_interval=3, drop_threshold=0.01,
            trigger_cooldown=4, shed_limit=30.0, alpha=0.4,
        )
        ov_a, pinned = traffic_overlay(seed=4)
        ov_b, _ = traffic_overlay(seed=4)
        a, b = DataPlane(ov_a, cfg), DataPlane(ov_b, cfg)
        ca, cb = Controller(a, ctl_cfg), Controller(b, ctl_cfg)
        hosts = unpinned_hosts(ov_a, pinned)
        for tick in range(35):
            mask = outage_mask(ov_a.num_nodes, hosts, tick)
            ov_a.apply_liveness(mask)
            ov_b.apply_liveness(mask)
            rv, rs = a.step(), b.step_scalar()
            assert_traffic_equal(rv, rs)
            cv, cs = ca.step(rv), cb.step_scalar(rs)
            assert cv == cs
        keys = ca.link_rates.keys()
        np.testing.assert_array_equal(ca.link_rates.rates(keys), cb.link_rates.rates(keys))
        np.testing.assert_array_equal(ca.node_drops.rates(), cb.node_drops.rates())
        np.testing.assert_array_equal(ca.node_cpu.rates(), cb.node_cpu.rates())
        assert ca.calibrations == cb.calibrations > 0
        # Calibration wrote identical rates into both twins' circuits.
        for name, circuit in ov_a.circuits.items():
            assert [l.rate for l in circuit.links] == [
                l.rate for l in ov_b.circuits[name].links
            ]

    def test_closed_loop_simulation_twins_agree(self):
        a = selectivity_drift_scenario(mode="control", seed=3, num_nodes=30, num_chains=3)
        b = selectivity_drift_scenario(mode="control", seed=3, num_nodes=30, num_chains=3)
        for _ in range(45):
            rv, rs = a.simulation.step(), b.simulation.step_scalar()
            assert (rv.migrations, rv.failures, rv.calibrated_links) == (
                rs.migrations, rs.failures, rs.calibrated_links,
            )
            assert_traffic_equal(rv, rs)
        for name, circuit in a.overlay.circuits.items():
            twin = b.overlay.circuits[name]
            assert circuit.placement == twin.placement
            np.testing.assert_allclose(
                [l.rate for l in circuit.links],
                [l.rate for l in twin.links],
                rtol=1e-12,
            )
        assert a.data_plane.accounting() == b.data_plane.accounting()
        assert a.data_plane.accounting()["balanced"]


class TestClosedLoopDeterminism:
    def test_same_seed_same_control_series(self):
        runs = []
        for _ in range(2):
            scenario = selectivity_drift_scenario(
                mode="control", seed=5, num_nodes=30, num_chains=3
            )
            scenario.simulation.run(40)
            runs.append(
                [
                    (r.data_usage, r.migrations, r.calibrated_links)
                    for r in scenario.simulation.series.records
                ]
            )
        assert runs[0] == runs[1]
