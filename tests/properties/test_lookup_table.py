"""Property test: the float-table lookup is ``np.interp``, bit for bit.

``PropagationMatrix.lookup`` reads Python-float copies of the matrix
and interpolates only the two rows that bracket the pressure.  The
oracle below is the NumPy formulation it replaced: ``np.interp`` along
the count axis in every row, then along pressure with the implicit
pressure-0 anchor.  Every result must match in ``float.hex`` and be a
Python ``float``.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.curves import HomogeneousSetting, PropagationMatrix

DENSE_COUNTS = [float(count) for count in range(9)]
#: EC2's sparse count axis (Figure 12).
SPARSE_COUNTS = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0]


def numpy_lookup(matrix, pressure, count):
    """The per-row ``np.interp`` lookup."""
    if count <= 0 or pressure <= 0:
        return 1.0
    count = min(count, matrix.max_count)
    pressure = min(pressure, float(matrix.pressures[-1]))
    column = np.array(
        [np.interp(count, matrix.counts, row) for row in matrix.values]
    )
    levels = matrix.pressures
    if pressure <= levels[0]:
        return float(1.0 + (column[0] - 1.0) * (pressure / levels[0]))
    return float(np.interp(pressure, levels, column))


@st.composite
def matrices(draw):
    """1-9 levels, dense or sparse counts, flat runs and steep slopes."""
    levels = sorted(
        draw(
            st.sets(
                st.floats(0.05, 9.0, allow_nan=False), min_size=1, max_size=9
            )
        )
    )
    counts = draw(st.sampled_from([DENSE_COUNTS, SPARSE_COUNTS]))
    rows = []
    for _ in levels:
        row = [1.0]
        for gap in np.diff(counts):
            if draw(st.booleans()):
                row.append(row[-1])  # equal neighbours
            else:
                slope = 10.0 ** draw(st.floats(-9.0, 3.0))
                row.append(row[-1] + slope * gap)
        rows.append(row)
    return PropagationMatrix(levels, counts, np.array(rows))


def _point(draw, knots, kind):
    """A coordinate of ``kind`` on the axis ``knots``."""
    if kind == "knot":
        return draw(st.sampled_from(knots))
    if kind == "between":
        i = draw(st.integers(0, len(knots) - 1))
        high = knots[min(i + 1, len(knots) - 1)]
        return knots[i] + (high - knots[i]) * draw(st.floats(0.0, 1.0))
    if kind == "below":
        return draw(st.floats(0.0, knots[0]))
    if kind == "above":
        return draw(st.floats(knots[-1], 1e3))
    return {"zero": 0.0, "infinite": math.inf}[kind]


@st.composite
def cases(draw):
    """A matrix and settings on every branch of the lookup."""
    matrix = draw(matrices())
    levels = matrix.pressures.tolist()
    counts = matrix.counts.tolist()
    points = []
    for _ in range(draw(st.integers(1, 12))):
        pressure_kind = draw(
            st.sampled_from(["knot", "between", "below", "above", "zero"])
        )
        count_kind = draw(
            st.sampled_from(["knot", "between", "above", "zero", "infinite"])
        )
        points.append(
            (
                _point(draw, levels, pressure_kind),
                _point(draw, counts, count_kind),
            )
        )
    return matrix, points


@given(case=cases())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_table_lookup_equals_np_interp(case):
    matrix, points = case
    for pressure, count in points:
        result = matrix.lookup(HomogeneousSetting(pressure, count))
        assert type(result) is float
        assert result.hex() == numpy_lookup(matrix, pressure, count).hex()
