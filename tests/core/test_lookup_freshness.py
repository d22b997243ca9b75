"""The scalar lookup's float table is never stale.

``PropagationMatrix.lookup`` reads Python-float copies of the matrix.
Profilers write ``values`` in place (``core/profiling/binary.py``), so
the copies must follow the matrix's content, not only :meth:`set`.
"""

import math

import numpy as np
import pytest

from repro.core.curves import HomogeneousSetting, PropagationMatrix
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.errors import ModelError

SETTING = HomogeneousSetting(3.0, 1.5)


def matrix():
    return PropagationMatrix(
        pressures=[2.0, 4.0, 8.0],
        counts=[0.0, 1.0, 2.0],
        values=np.array(
            [[1.0, 1.1, 1.2], [1.0, 1.3, 1.5], [1.0, 1.6, 2.0]]
        ),
    )


def fresh_lookup(source):
    """The same lookup on a freshly built matrix of equal content."""
    return source.copy().lookup(SETTING)


class TestTableFollowsContent:
    def test_whole_matrix_write(self):
        m = matrix()
        before = m.lookup(SETTING)
        m.values[:] += 0.5
        assert m.lookup(SETTING) == fresh_lookup(m) != before

    def test_row_write_like_binary_profiling(self):
        m = matrix()
        before = m.lookup(SETTING)
        m.values[1] = np.interp(m.counts, [0.0, 2.0], [1.0, 3.0])
        assert m.lookup(SETTING) == fresh_lookup(m) != before

    def test_set(self):
        m = matrix()
        before = m.lookup(SETTING)
        m.set(0, 2, 1.9)
        assert m.lookup(SETTING) == fresh_lookup(m) != before

    def test_nan_write_raises_until_filled(self):
        m = matrix()
        m.lookup(SETTING)
        m.values[2, 1] = math.nan
        for setting in (SETTING, HomogeneousSetting(0.0, 0.0)):
            with pytest.raises(ModelError, match="incomplete"):
                m.lookup(setting)
        m.values[2, 1] = 1.6
        assert m.lookup(SETTING) == matrix().lookup(SETTING)

    def test_copy_does_not_share_the_table(self):
        m = matrix()
        before = m.lookup(SETTING)
        clone = m.copy()
        assert clone.lookup(SETTING) == before
        clone.values[:] *= 2.0
        m.values[:] += 0.25
        assert clone.lookup(SETTING) == fresh_lookup(clone)
        assert m.lookup(SETTING) == fresh_lookup(m)
        assert clone.lookup(SETTING) != m.lookup(SETTING)


def model():
    return InterferenceModel(
        {
            "w": InterferenceProfile(
                workload="w", matrix=matrix(), policy_name="N MAX",
                bubble_score=3.0,
            )
        }
    )


def test_model_predict_reflects_in_place_matrix_write():
    # N MAX maps [3, 0] to one node at pressure 3 out of the profiled 2.
    m = model()
    before = m.predict("w", [3.0, 0.0])
    registered = m.profile("w").matrix
    registered.values[:] += 0.5
    expected = registered.copy().lookup(HomogeneousSetting(3.0, 1.0))
    assert m.predict("w", [3.0, 0.0]) == expected != before


class TestNaNCount:
    def test_setting_rejects_nan_count(self):
        with pytest.raises(ValueError, match="count"):
            HomogeneousSetting(1.5, math.nan)

    def test_scalar_and_batch_raise_the_same_error(self):
        m = model()
        with pytest.raises(ValueError) as scalar:
            m.predict("w", (1.5, math.nan))
        with pytest.raises(ValueError) as batch:
            m.predict_batch([("w", (1.5, math.nan))])
        assert str(batch.value) == str(scalar.value)
        assert "count" in str(scalar.value)
