"""Unit tests for the cost-space snapshot."""

import numpy as np
import pytest

from repro.core.coordinates import CostCoordinate
from repro.core.cost_space import (
    CostSpace,
    CostSpaceSpec,
    ScalarDimension,
    nearest_node_scalar,
    nodes_within_scalar,
)
from repro.core.weighting import linear, squared


def load_space(loads=(0.0, 0.5, 1.0)) -> CostSpace:
    spec = CostSpaceSpec.latency_load(vector_dims=2, load_weighting=squared(100.0))
    embedding = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])[: len(loads)]
    return CostSpace.from_embedding(
        spec, embedding, {"cpu_load": np.array(loads)}
    )


class TestSpec:
    def test_requires_vector_dims(self):
        with pytest.raises(ValueError):
            CostSpaceSpec(vector_dims=0)

    def test_duplicate_metrics_rejected(self):
        with pytest.raises(ValueError):
            CostSpaceSpec(
                vector_dims=2,
                scalar_dimensions=(
                    ScalarDimension("cpu", linear()),
                    ScalarDimension("cpu", squared()),
                ),
            )

    def test_latency_only_factory(self):
        spec = CostSpaceSpec.latency_only(vector_dims=3)
        assert spec.dims == 3
        assert not spec.scalar_dimensions

    def test_latency_load_factory(self):
        spec = CostSpaceSpec.latency_load(vector_dims=2)
        assert spec.dims == 3
        assert spec.scalar_dimensions[0].metric == "cpu_load"


class TestConstruction:
    def test_from_embedding_shapes(self):
        space = load_space()
        assert space.num_nodes == 3
        assert space.coordinate(0).dims == 3

    def test_wrong_embedding_shape_rejected(self):
        spec = CostSpaceSpec.latency_only(vector_dims=2)
        with pytest.raises(ValueError):
            CostSpace.from_embedding(spec, np.zeros((3, 5)))

    def test_missing_metric_rejected(self):
        spec = CostSpaceSpec.latency_load(vector_dims=2)
        with pytest.raises(ValueError):
            CostSpace.from_embedding(spec, np.zeros((3, 2)), {})

    def test_wrong_metric_length_rejected(self):
        spec = CostSpaceSpec.latency_load(vector_dims=2)
        with pytest.raises(ValueError):
            CostSpace.from_embedding(
                spec, np.zeros((3, 2)), {"cpu_load": np.zeros(5)}
            )

    def test_weighting_applied(self):
        space = load_space(loads=(0.0, 0.5, 1.0))
        assert space.coordinate(0).scalar == (0.0,)
        assert space.coordinate(1).scalar[0] == pytest.approx(25.0)
        assert space.coordinate(2).scalar[0] == pytest.approx(100.0)


class TestDistances:
    def test_vector_distance_is_embedding_distance(self):
        space = load_space()
        assert space.vector_distance(0, 1) == pytest.approx(10.0)

    def test_full_distance_includes_load(self):
        space = load_space(loads=(0.0, 0.0, 1.0))
        # Nodes 0 and 2: vector distance 10, scalar delta 100.
        assert space.distance(0, 2) == pytest.approx(np.hypot(10.0, 100.0))


class TestUpdates:
    def test_update_metrics_changes_scalars_only(self):
        space = load_space(loads=(0.0, 0.0, 0.0))
        before_vec = space.coordinate(1).vector
        space.update_metrics({"cpu_load": np.array([1.0, 1.0, 1.0])})
        assert space.coordinate(1).vector == before_vec
        assert space.coordinate(1).scalar[0] == pytest.approx(100.0)

    def test_update_vector(self):
        space = load_space()
        space.update_vector(0, [5.0, 5.0])
        assert space.coordinate(0).vector == (5.0, 5.0)


class TestQueries:
    def test_nearest_node_pure_latency(self):
        space = load_space(loads=(0.0, 0.0, 0.0))
        target = CostCoordinate((9.0, 0.0), (0.0,))
        assert space.nearest_node(target) == 1

    def test_nearest_node_avoids_loaded(self):
        # Target next to node 1, but node 1 is saturated.
        space = load_space(loads=(0.0, 1.0, 0.0))
        target = CostCoordinate((9.0, 0.0), (0.0,))
        assert space.nearest_node(target) == 0

    def test_nearest_node_respects_exclusion(self):
        space = load_space(loads=(0.0, 0.0, 0.0))
        target = CostCoordinate((9.0, 0.0), (0.0,))
        assert space.nearest_node(target, exclude={1}) == 0

    def test_nearest_with_all_excluded_raises(self):
        space = load_space()
        target = CostCoordinate((0.0, 0.0), (0.0,))
        with pytest.raises(ValueError):
            space.nearest_node(target, exclude={0, 1, 2})

    def test_nodes_within_radius(self):
        space = load_space(loads=(0.0, 0.0, 0.0))
        target = CostCoordinate((0.0, 0.0), (0.0,))
        assert space.nodes_within(target, radius=10.5) == [0, 1, 2]
        assert space.nodes_within(target, radius=5.0) == [0]

    def test_wrong_shape_target_rejected(self):
        space = load_space()
        with pytest.raises(ValueError):
            space.nearest_node(CostCoordinate((1.0, 2.0)))  # missing scalar dim

    def test_bounding_box_covers_all(self):
        space = load_space()
        lows, highs = space.bounding_box()
        matrix = space.full_matrix()
        assert np.all(matrix >= np.array(lows) - 1e-9)
        assert np.all(matrix <= np.array(highs) + 1e-9)


class TestBatchedQueries:
    def test_distances_from_accepts_coordinate_and_array(self):
        space = load_space(loads=(0.0, 0.0, 0.0))
        target = CostCoordinate((0.0, 0.0), (0.0,))
        from_coord = space.distances_from(target)
        from_array = space.distances_from(np.zeros(3))
        assert np.allclose(from_coord, from_array)
        assert from_coord[1] == pytest.approx(10.0)

    def test_distances_from_rejects_bad_shape(self):
        space = load_space()
        with pytest.raises(ValueError):
            space.distances_from(np.zeros(5))

    def test_nearest_nodes_matches_singles(self):
        space = load_space(loads=(0.0, 0.3, 0.9))
        targets = [
            CostCoordinate((9.0, 0.0), (0.0,)),
            CostCoordinate((0.0, 9.0), (0.0,)),
            CostCoordinate((1.0, 1.0), (0.0,)),
        ]
        batched = space.nearest_nodes(targets)
        assert list(batched) == [space.nearest_node(t) for t in targets]

    def test_nearest_nodes_empty_targets(self):
        space = load_space()
        assert space.nearest_nodes([]).shape == (0,)

    def test_nearest_nodes_respects_exclusion(self):
        space = load_space(loads=(0.0, 0.0, 0.0))
        targets = np.array([[9.0, 0.0, 0.0]])
        assert list(space.nearest_nodes(targets, exclude={1})) == [0]
        with pytest.raises(ValueError):
            space.nearest_nodes(targets, exclude={0, 1, 2})

    def test_nearest_nodes_ignores_out_of_range_exclusions(self):
        space = load_space(loads=(0.0, 0.0, 0.0))
        targets = np.array([[9.0, 0.0, 0.0], [0.0, 9.0, 0.0]])
        assert list(space.nearest_nodes(targets, exclude={-1, 3, 99})) == [1, 2]
        assert list(space.nearest_nodes(targets, exclude={-1, 1, 2, 7})) == [0, 0]

    def test_nearest_nodes_ties_go_to_lowest_index(self):
        spec = CostSpaceSpec.latency_only(vector_dims=2)
        space = CostSpace.from_embedding(
            spec, np.array([[5.0, 5.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        )
        targets = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert list(space.nearest_nodes(targets)) == [1, 1]
        assert list(space.nearest_nodes(targets, exclude={1})) == [2, 2]

    def test_matrices_are_read_only_views(self):
        space = load_space()
        with pytest.raises(ValueError):
            space.full_matrix()[0, 0] = 1.0
        with pytest.raises(ValueError):
            space.vector_matrix()[0, 0] = 1.0

    def test_update_vectors_batched(self):
        space = load_space()
        fresh = np.arange(6, dtype=float).reshape(3, 2)
        space.update_vectors(fresh)
        assert space.coordinate(2).vector == (4.0, 5.0)
        with pytest.raises(ValueError):
            space.update_vectors(np.zeros((2, 2)))

    def test_scalar_penalties(self):
        space = load_space(loads=(0.0, 0.5, 1.0))
        penalties = space.scalar_penalties()
        assert penalties[0] == pytest.approx(0.0)
        assert penalties[1] == pytest.approx(25.0)
        assert space.scalar_penalty(2) == pytest.approx(100.0)

    def test_coordinate_views_refresh_after_update(self):
        space = load_space(loads=(0.0, 0.0, 0.0))
        before = space.coordinate(1)
        space.update_metrics({"cpu_load": np.array([0.0, 1.0, 0.0])})
        after = space.coordinate(1)
        assert before.scalar == (0.0,)
        assert after.scalar[0] == pytest.approx(100.0)


class TestNonFiniteArguments:
    """Bad coordinates fail at the cost space, not as 'no eligible node'."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_targets_rejected(self, bad):
        space = load_space()
        coord = CostCoordinate((bad, 0.0), (0.0,))
        with pytest.raises(ValueError, match="targets must be finite"):
            space.nearest_nodes(np.array([[0.0, 0.0, 0.0], [bad, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="targets must be finite"):
            space.nearest_nodes([CostCoordinate((0.0, 0.0), (0.0,)), coord])
        with pytest.raises(ValueError, match="targets must be finite"):
            space.nearest_node(coord)
        with pytest.raises(ValueError, match="targets must be finite"):
            nearest_node_scalar(space, coord)
        with pytest.raises(ValueError, match="targets must be finite"):
            space.distances_from(np.array([0.0, bad, 0.0]))
        with pytest.raises(ValueError, match="targets must be finite"):
            space.nodes_within(coord, 10.0)
        with pytest.raises(ValueError, match="targets must be finite"):
            nodes_within_scalar(space, coord, 10.0)

    def test_nan_radius_rejected(self):
        space = load_space()
        target = CostCoordinate((0.0, 0.0), (0.0,))
        with pytest.raises(ValueError, match="radius"):
            space.nodes_within(target, float("nan"))
        with pytest.raises(ValueError, match="radius"):
            nodes_within_scalar(space, target, float("nan"))

    def test_infinite_radius_returns_every_eligible_node(self):
        space = load_space()
        target = CostCoordinate((0.0, 0.0), (0.0,))
        assert space.nodes_within(target, float("inf"), exclude={1}) == [0, 2]
        assert nodes_within_scalar(space, target, float("inf"), exclude={1}) == [0, 2]

    def test_nan_node_row_raises_only_while_eligible(self):
        spec = CostSpaceSpec.latency_only(vector_dims=2)
        space = CostSpace.from_embedding(
            spec, np.array([[0.0, 0.0], [np.nan, 1.0], [4.0, 4.0]])
        )
        targets = np.array([[3.0, 3.0]])
        with pytest.raises(ValueError, match="no eligible node"):
            space.nearest_nodes(targets)
        assert list(space.nearest_nodes(targets, exclude={1})) == [2]
