"""Unit tests for cost-space coordinates."""

import math

import numpy as np
import pytest

from repro.core.coordinates import CostCoordinate


class TestConstruction:
    def test_needs_vector_part(self):
        with pytest.raises(ValueError):
            CostCoordinate(vector=())

    def test_scalar_must_be_non_negative(self):
        with pytest.raises(ValueError):
            CostCoordinate(vector=(1.0,), scalar=(-0.5,))

    def test_from_arrays(self):
        c = CostCoordinate.from_arrays(np.array([1.0, 2.0]), np.array([3.0]))
        assert c.vector == (1.0, 2.0)
        assert c.scalar == (3.0,)

    def test_dims(self):
        c = CostCoordinate((1.0, 2.0), (3.0,))
        assert c.vector_dims == 2
        assert c.scalar_dims == 1
        assert c.dims == 3


class TestDistances:
    def test_full_distance_includes_scalars(self):
        a = CostCoordinate((0.0, 0.0), (3.0,))
        b = CostCoordinate((0.0, 4.0), (0.0,))
        assert a.distance_to(b) == pytest.approx(5.0)

    def test_vector_distance_ignores_scalars(self):
        a = CostCoordinate((0.0, 0.0), (100.0,))
        b = CostCoordinate((3.0, 4.0), (0.0,))
        assert a.vector_distance_to(b) == pytest.approx(5.0)

    def test_distance_symmetry(self):
        a = CostCoordinate((1.0, 2.0), (0.5,))
        b = CostCoordinate((4.0, 6.0), (0.1,))
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_distance_to_self_zero(self):
        a = CostCoordinate((1.0, 2.0), (0.5,))
        assert a.distance_to(a) == 0.0

    def test_incompatible_shapes_rejected(self):
        a = CostCoordinate((1.0,))
        b = CostCoordinate((1.0, 2.0))
        with pytest.raises(ValueError):
            a.distance_to(b)
        with pytest.raises(ValueError):
            a.vector_distance_to(b)

    def test_loaded_node_seems_far(self):
        # The Figure 3 effect: N1 is nearer in latency but its load
        # pushes it away in the full space.
        target = CostCoordinate((0.0, 0.0), (0.0,))
        n1 = CostCoordinate((1.0, 0.0), (10.0,))   # close, loaded
        n2 = CostCoordinate((3.0, 0.0), (0.0,))    # farther, idle
        assert target.vector_distance_to(n1) < target.vector_distance_to(n2)
        assert target.distance_to(n1) > target.distance_to(n2)


class TestHelpers:
    def test_scalar_penalty(self):
        c = CostCoordinate((0.0,), (3.0, 4.0))
        assert c.scalar_penalty() == pytest.approx(5.0)
        assert CostCoordinate((0.0,)).scalar_penalty() == 0.0

    def test_full_array_concatenates(self):
        c = CostCoordinate((1.0, 2.0), (3.0,))
        assert list(c.full_array()) == [1.0, 2.0, 3.0]

    def test_str(self):
        assert "|" in str(CostCoordinate((1.0,), (2.0,)))
        assert "|" not in str(CostCoordinate((1.0,)))

    def test_immutability(self):
        c = CostCoordinate((1.0,), (2.0,))
        with pytest.raises(AttributeError):
            c.vector = (9.0,)
