"""Unit tests for the Vivaldi coordinate system."""

import numpy as np
import pytest

from repro.network.latency import LatencyMatrix
from repro.network.topology import grid_topology, ring_topology
from repro.network.vivaldi import (
    VivaldiConfig,
    VivaldiSystem,
    embed_latency_matrix,
)
from repro.workloads.scenarios import planted_latency_matrix


class TestConfig:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            VivaldiConfig(dimensions=0)

    def test_rejects_bad_gains(self):
        with pytest.raises(ValueError):
            VivaldiConfig(cc=0.0)
        with pytest.raises(ValueError):
            VivaldiConfig(ce=1.5)


class TestVivaldiSystem:
    def test_planted_euclidean_matrix_embeds_accurately(self):
        # Points on a plane: a 2-D embedding should nail it.
        positions = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0),
                     (5.0, 5.0), (2.0, 8.0)]
        lm = planted_latency_matrix(positions)
        result = embed_latency_matrix(lm, dimensions=2, rounds=120, seed=0)
        assert result.median_relative_error < 0.05

    def test_error_decreases_with_rounds(self):
        lm = LatencyMatrix.from_topology(grid_topology(4, 4))
        early = embed_latency_matrix(lm, rounds=2, seed=1)
        late = embed_latency_matrix(lm, rounds=80, seed=1)
        assert late.median_relative_error < early.median_relative_error

    def test_coordinates_shape(self):
        lm = LatencyMatrix.from_topology(ring_topology(8))
        result = embed_latency_matrix(lm, dimensions=3, rounds=10)
        assert result.coordinates.shape == (8, 3)
        assert result.dimensions == 3

    def test_deterministic_given_seed(self):
        lm = LatencyMatrix.from_topology(grid_topology(3, 3))
        a = embed_latency_matrix(lm, rounds=20, seed=9)
        b = embed_latency_matrix(lm, rounds=20, seed=9)
        assert np.allclose(a.coordinates, b.coordinates)

    def test_samples_counted(self):
        lm = LatencyMatrix.from_topology(grid_topology(3, 3))
        system = VivaldiSystem(lm, seed=0)
        system.run(rounds=5, neighbors_per_round=4)
        assert system.samples_used == 9 * 5 * 4

    def test_single_node_noop(self):
        lm = LatencyMatrix(np.zeros((1, 1)))
        system = VivaldiSystem(lm)
        system.run(rounds=10)
        assert system.samples_used == 0

    def test_invalid_run_args(self):
        lm = LatencyMatrix.from_topology(grid_topology(2, 2))
        system = VivaldiSystem(lm)
        with pytest.raises(ValueError):
            system.run(rounds=-1)
        with pytest.raises(ValueError):
            system.run(neighbors_per_round=0)

    @pytest.mark.parametrize("use_height", [False, True], ids=["plain", "height"])
    def test_split_runs_continue_one_schedule(self, use_height):
        # Node state lives in the arrays, so a run picks up exactly
        # where the previous one stopped.
        lm = LatencyMatrix.from_topology(grid_topology(4, 4))
        config = VivaldiConfig(dimensions=3, use_height=use_height)
        split = VivaldiSystem(lm, config=config, seed=5)
        split.run(rounds=5, neighbors_per_round=3)
        split.run(rounds=7, neighbors_per_round=3)
        whole = VivaldiSystem(lm, config=config, seed=5)
        whole.run(rounds=12, neighbors_per_round=3)
        for attr in ("positions", "heights", "errors"):
            np.testing.assert_array_equal(getattr(split, attr), getattr(whole, attr))
        assert split.samples_used == whole.samples_used == 16 * 12 * 3
        if use_height:
            assert whole.heights.any()

    def test_height_model_keeps_height_non_negative(self):
        lm = LatencyMatrix.from_topology(grid_topology(3, 3))
        config = VivaldiConfig(use_height=True)
        system = VivaldiSystem(lm, config=config, seed=0)
        system.run(rounds=30)
        assert system.heights.shape == (9,)
        assert (system.heights >= 0.0).all()
