"""Unit tests for load, latency-drift, and churn processes."""

import numpy as np
import pytest

from repro.network.dynamics import (
    ChurnProcess,
    HotspotEvent,
    LatencyDriftProcess,
    LoadProcess,
)
from repro.network.latency import LatencyMatrix
from repro.network.topology import grid_topology


class TestLoadProcess:
    def test_loads_stay_in_bounds(self):
        proc = LoadProcess(num_nodes=20, sigma=0.3, seed=0)
        for _ in range(50):
            loads = proc.step()
            assert np.all(loads >= 0.0)
            assert np.all(loads <= 1.0)

    def test_mean_reversion(self):
        proc = LoadProcess(num_nodes=200, mean_load=0.4, theta=0.2, sigma=0.02, seed=1)
        proc.step(200)
        assert abs(proc.loads().mean() - 0.4) < 0.1

    def test_hotspot_applies_only_while_active(self):
        proc = LoadProcess(num_nodes=4, mean_load=0.2, sigma=0.0, theta=1.0, seed=0)
        proc.add_hotspot(HotspotEvent(start_tick=2, duration=3, nodes=(1,), extra_load=0.7))
        proc.step(2)  # tick = 2 -> active
        assert proc.loads()[1] > 0.8
        proc.step(3)  # tick = 5 -> expired
        assert proc.loads()[1] < 0.5

    def test_hotspot_validation(self):
        proc = LoadProcess(num_nodes=2)
        with pytest.raises(ValueError):
            proc.add_hotspot(HotspotEvent(0, 0, (0,), 0.5))

    def test_deterministic(self):
        a = LoadProcess(num_nodes=5, seed=3)
        b = LoadProcess(num_nodes=5, seed=3)
        a.step(10)
        b.step(10)
        assert np.allclose(a.loads(), b.loads())

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LoadProcess(num_nodes=0)
        with pytest.raises(ValueError):
            LoadProcess(num_nodes=2, mean_load=2.0)


class TestLatencyDrift:
    def _base(self) -> LatencyMatrix:
        return LatencyMatrix.from_topology(grid_topology(3, 3))

    def test_matrix_stays_valid(self):
        drift = LatencyDriftProcess(self._base(), drift_sigma=0.1, seed=0)
        lm = drift.step(20)  # constructor of LatencyMatrix validates
        assert lm.num_nodes == 9

    def test_drift_changes_latencies(self):
        base = self._base()
        drift = LatencyDriftProcess(base, drift_sigma=0.1, seed=1)
        lm = drift.step(10)
        assert not np.allclose(lm.values, base.values)

    def test_reversion_bounds_excursion(self):
        base = self._base()
        drift = LatencyDriftProcess(base, drift_sigma=0.02, reversion=0.3, seed=2)
        lm = drift.step(500)
        ratio = lm.values[0, 1] / base.values[0, 1]
        assert 0.3 < ratio < 3.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LatencyDriftProcess(self._base(), drift_sigma=-1)
        with pytest.raises(ValueError):
            LatencyDriftProcess(self._base(), reversion=2.0)

    def test_returned_snapshots_stay_frozen(self):
        # Recording the drift trajectory must not alias one live buffer.
        drift = LatencyDriftProcess(self._base(), drift_sigma=0.1, seed=5)
        first = drift.step()
        first_values = first.values.copy()
        drift.step(3)
        assert np.array_equal(first.values, first_values)


class TestUnifiedRngDeterminism:
    """Each process owns one seeded np.random.Generator (no ``random``
    module): identical seeds must replay identical trajectories."""

    def test_latency_drift_deterministic(self):
        base = LatencyMatrix.from_topology(grid_topology(3, 3))
        a = LatencyDriftProcess(base, drift_sigma=0.05, seed=4)
        b = LatencyDriftProcess(base, drift_sigma=0.05, seed=4)
        assert np.array_equal(a.step(15).values, b.step(15).values)

    def test_churn_deterministic(self):
        a = ChurnProcess(50, fail_prob=0.2, recover_prob=0.4, seed=4)
        b = ChurnProcess(50, fail_prob=0.2, recover_prob=0.4, seed=4)
        assert a.step(15) == b.step(15)
        assert a.alive() == b.alive()

    def test_different_seeds_diverge(self):
        a = ChurnProcess(200, fail_prob=0.3, seed=1)
        b = ChurnProcess(200, fail_prob=0.3, seed=2)
        assert a.step(3) != b.step(3)

    def test_churn_alive_mask_matches_alive(self):
        churn = ChurnProcess(30, fail_prob=0.5, recover_prob=0.2, seed=3)
        churn.step(5)
        assert churn.alive_mask().tolist() == churn.alive()


class TestChurn:
    def test_protected_nodes_never_fail(self):
        churn = ChurnProcess(10, fail_prob=1.0, recover_prob=0.0, protected={0, 1}, seed=0)
        churn.step(5)
        alive = churn.alive_mask()
        assert alive[0] and alive[1]
        assert not alive[5]

    def test_failures_reported_once(self):
        churn = ChurnProcess(10, fail_prob=1.0, recover_prob=0.0, seed=0)
        failed_first = churn.step()
        failed_second = churn.step()
        assert len(failed_first) == 10
        assert failed_second == []

    def test_recovery(self):
        churn = ChurnProcess(5, fail_prob=1.0, recover_prob=1.0, seed=0)
        churn.step()  # all fail
        churn.step()  # all recover (and maybe re-fail; fail checked first)
        # With fail_prob=1 the alive ones fail again, but the dead ones
        # recover: after two steps all nodes flipped twice -> alive count
        # can be anything deterministic; just assert no exception and
        # liveness flags are booleans.
        assert len(churn.alive()) == 5

    def test_alive_nodes_listing(self):
        churn = ChurnProcess(4, fail_prob=0.0, seed=0)
        churn.step(3)
        assert np.flatnonzero(churn.alive_mask()).tolist() == [0, 1, 2, 3]

    def test_invalid_probs(self):
        with pytest.raises(ValueError):
            ChurnProcess(3, fail_prob=1.5)
