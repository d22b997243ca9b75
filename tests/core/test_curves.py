"""Tests for propagation matrices."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.curves import HomogeneousSetting, PropagationMatrix
from repro.errors import ModelError


def simple_matrix():
    """2 pressure levels x counts 0..2 with hand-set values."""
    return PropagationMatrix(
        pressures=[4.0, 8.0],
        counts=[0.0, 1.0, 2.0],
        values=np.array([[1.0, 1.2, 1.4], [1.0, 1.6, 2.0]]),
    )


class TestConstruction:
    def test_valid(self):
        matrix = simple_matrix()
        assert matrix.num_levels == 2
        assert matrix.max_count == 2.0

    def test_empty_has_ones_column(self):
        matrix = PropagationMatrix.empty([1.0, 2.0], [0.0, 1.0])
        assert (matrix.values[:, 0] == 1.0).all()
        assert not matrix.is_complete()

    def test_counts_must_start_at_zero(self):
        with pytest.raises(ModelError, match="start at 0"):
            PropagationMatrix([1.0], [1.0, 2.0], np.ones((1, 2)))

    def test_pressures_strictly_increasing(self):
        with pytest.raises(ModelError):
            PropagationMatrix([2.0, 2.0], [0.0, 1.0], np.ones((2, 2)))

    def test_counts_strictly_increasing(self):
        with pytest.raises(ModelError):
            PropagationMatrix([1.0], [0.0, 1.0, 1.0], np.ones((1, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(ModelError, match="shape"):
            PropagationMatrix([1.0, 2.0], [0.0, 1.0], np.ones((1, 2)))

    def test_copy_is_deep(self):
        matrix = simple_matrix()
        clone = matrix.copy()
        clone.set(0, 1, 99.0)
        assert matrix.get(0, 1) == 1.2


class TestCellAccess:
    def test_set_get(self):
        matrix = PropagationMatrix.empty([1.0], [0.0, 1.0])
        matrix.set(0, 1, 1.5)
        assert matrix.get(0, 1) == 1.5
        assert matrix.is_complete()

    def test_non_positive_rejected(self):
        matrix = PropagationMatrix.empty([1.0], [0.0, 1.0])
        with pytest.raises(ModelError):
            matrix.set(0, 1, 0.0)


class TestLookup:
    def test_exact_grid_points(self):
        matrix = simple_matrix()
        assert matrix.lookup(HomogeneousSetting(8.0, 2.0)) == 2.0
        assert matrix.lookup(HomogeneousSetting(4.0, 1.0)) == 1.2

    def test_no_interference(self):
        matrix = simple_matrix()
        assert matrix.lookup(HomogeneousSetting(0.0, 2.0)) == 1.0
        assert matrix.lookup(HomogeneousSetting(8.0, 0.0)) == 1.0

    def test_interpolates_counts(self):
        matrix = simple_matrix()
        assert matrix.lookup(HomogeneousSetting(8.0, 1.5)) == pytest.approx(1.8)

    def test_interpolates_pressures(self):
        matrix = simple_matrix()
        assert matrix.lookup(HomogeneousSetting(6.0, 1.0)) == pytest.approx(1.4)

    def test_below_first_level_anchors_at_one(self):
        # Pressure 2 is halfway between the implicit pressure-0 row of
        # ones and the pressure-4 row.
        matrix = simple_matrix()
        assert matrix.lookup(HomogeneousSetting(2.0, 1.0)) == pytest.approx(1.1)

    def test_clamps_above_grid(self):
        matrix = simple_matrix()
        assert matrix.lookup(HomogeneousSetting(12.0, 5.0)) == 2.0

    def test_incomplete_rejected(self):
        matrix = PropagationMatrix.empty([1.0], [0.0, 1.0])
        with pytest.raises(ModelError, match="incomplete"):
            matrix.lookup(HomogeneousSetting(1.0, 1.0))

    @given(
        pressure=st.floats(min_value=0.0, max_value=10.0),
        count=st.floats(min_value=0.0, max_value=4.0),
    )
    def test_lookup_bounded_by_extremes(self, pressure, count):
        matrix = simple_matrix()
        value = matrix.lookup(HomogeneousSetting(pressure, count))
        assert 1.0 <= value <= 2.0


class TestSerialization:
    def test_roundtrip(self):
        matrix = simple_matrix()
        clone = PropagationMatrix.from_dict(matrix.to_dict())
        assert np.array_equal(clone.values, matrix.values)
        assert np.array_equal(clone.pressures, matrix.pressures)


class TestHomogeneousSetting:
    def test_validation(self):
        with pytest.raises(ValueError):
            HomogeneousSetting(-1.0, 1.0)
        with pytest.raises(ValueError):
            HomogeneousSetting(1.0, -1.0)
