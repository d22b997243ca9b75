"""Interference sensitivity curves and the propagation matrix.

The propagation model of Section 3.4 is a matrix ``T`` where
``T[i][j]`` is the execution time, normalized to the no-interference
solo run, when ``j`` nodes interfere at bubble pressure level ``i+1``
(the curves of Figure 3).  Profiling fills the matrix; prediction reads
it back, bilinearly interpolating because heterogeneity conversion
produces fractional pressures (bubble scores like 4.3) and fractional
node counts never — but out-of-grid counts on EC2's sparse count axis
do (Figure 12 profiles counts 0,1,2,4,8,16,24,32).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.units import validate_pressure


@dataclass(frozen=True)
class HomogeneousSetting:
    """A homogeneous interference setting: ``count`` nodes at ``pressure``."""

    pressure: float
    count: float

    def __post_init__(self) -> None:
        validate_pressure(self.pressure)
        if self.count != self.count:
            raise ValueError("count must not be NaN")
        if self.count < 0:
            raise ValueError("count must be non-negative")


class PropagationMatrix:
    """Normalized execution times over (pressure level, interfering nodes).

    Parameters
    ----------
    pressures:
        Strictly increasing bubble pressure levels (the row axis),
        e.g. ``[1, 2, ..., 8]``.
    counts:
        Strictly increasing interfering-node counts (the column axis),
        starting at 0, e.g. ``[0, 1, ..., 8]`` or EC2's sparse
        ``[0, 1, 2, 4, 8, 16, 24, 32]``.
    values:
        Matrix of normalized times, shape ``(len(pressures),
        len(counts))``; ``values[:, 0]`` must be 1 (no interference).
        ``None`` entries are allowed during construction via
        :meth:`empty`; a complete matrix has no ``None``.
    """

    def __init__(
        self,
        pressures: Sequence[float],
        counts: Sequence[float],
        values: np.ndarray,
    ) -> None:
        self.pressures = np.asarray(pressures, dtype=float)
        self.counts = np.asarray(counts, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.pressures.ndim != 1 or len(self.pressures) == 0:
            raise ModelError("pressures must be a non-empty 1-D sequence")
        if self.counts.ndim != 1 or len(self.counts) == 0:
            raise ModelError("counts must be a non-empty 1-D sequence")
        if np.any(np.diff(self.pressures) <= 0):
            raise ModelError("pressures must be strictly increasing")
        if np.any(np.diff(self.counts) <= 0):
            raise ModelError("counts must be strictly increasing")
        if self.counts[0] != 0:
            raise ModelError("counts must start at 0 (the no-interference column)")
        if self.values.shape != (len(self.pressures), len(self.counts)):
            raise ModelError(
                f"values shape {self.values.shape} does not match axes "
                f"({len(self.pressures)}, {len(self.counts)})"
            )
        # (content key, float table or None if incomplete).
        self._table: Tuple[tuple, Optional[tuple]] = ((), None)

    # ------------------------------------------------------------------
    @classmethod
    def empty(
        cls, pressures: Sequence[float], counts: Sequence[float]
    ) -> "PropagationMatrix":
        """A matrix of NaNs with the no-interference column set to 1."""
        values = np.full((len(pressures), len(counts)), np.nan)
        values[:, 0] = 1.0
        return cls(pressures, counts, values)

    @property
    def num_levels(self) -> int:
        """Number of pressure levels (rows)."""
        return len(self.pressures)

    @property
    def max_count(self) -> float:
        """Largest interfering-node count on the column axis."""
        return float(self.counts[-1])

    def is_complete(self) -> bool:
        """Whether every cell holds a measured or interpolated value."""
        return not np.any(np.isnan(self.values))

    def copy(self) -> "PropagationMatrix":
        """Deep copy (profilers mutate their working matrices)."""
        return PropagationMatrix(
            self.pressures.copy(), self.counts.copy(), self.values.copy()
        )

    # ------------------------------------------------------------------
    def row(self, level_index: int) -> np.ndarray:
        """One sensitivity curve: normalized times across counts."""
        return self.values[level_index]

    def set(self, level_index: int, count_index: int, value: float) -> None:
        """Store one cell value."""
        if value <= 0:
            raise ModelError("normalized times must be positive")
        self.values[level_index, count_index] = value

    def get(self, level_index: int, count_index: int) -> float:
        """Read one cell value (NaN if unfilled)."""
        return float(self.values[level_index, count_index])

    # ------------------------------------------------------------------
    def lookup(self, setting: HomogeneousSetting) -> float:
        """Predict the normalized time of a homogeneous setting.

        Bilinear interpolation over (pressure, count).  Pressures below
        the first profiled level interpolate toward the implicit
        pressure-0 row of ones; pressures above the last level and
        counts above the last column clamp (the bubble scale and the
        cluster size bound the physical domain).

        Reads Python floats (:meth:`_float_table`), interpolating only
        the two rows that bracket the pressure, bit for bit ``np.interp``.

        Raises
        ------
        ModelError
            If the matrix still has unfilled cells.
        """
        levels, counts, rows = self._float_table()
        if setting.count <= 0 or setting.pressure <= 0:
            return 1.0
        count = float(min(setting.count, counts[-1]))
        pressure = float(min(setting.pressure, levels[-1]))
        at = bisect_right(counts, count) - 1
        # Interpolate along pressure, with an implicit (0, 1.0) anchor.
        if pressure <= levels[0]:
            fraction = pressure / levels[0]
            return 1.0 + (_interp(count, counts, rows[0], at) - 1.0) * fraction
        j = bisect_right(levels, pressure) - 1
        low = _interp(count, counts, rows[j], at)
        if j == len(levels) - 1 or levels[j] == pressure:
            return low
        high = _interp(count, counts, rows[j + 1], at)
        return _interp(pressure, levels[j:j + 2], (low, high), 0)

    def _float_table(self) -> Tuple[list, list, list]:
        """Python-float axes and rows, rebuilt whenever the content changes.

        Keyed on the bytes of the axes and values, not on :meth:`set`:
        profilers and tests also write ``values`` in place.
        """
        pressures, counts, values = self.pressures, self.counts, self.values
        key = (pressures.tobytes(), counts.tobytes(), values.tobytes())
        built_for, table = self._table
        if key != built_for:
            table = None
            if self.is_complete():
                table = pressures.tolist(), counts.tolist(), values.tolist()
            self._table = key, table
        if table is None:
            raise ModelError("cannot look up an incomplete propagation matrix")
        return table

    def lookup_batch(
        self, pressures: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`lookup` over parallel setting arrays.

        ``pressures[i]`` and ``counts[i]`` describe one homogeneous
        setting; the result is bit-identical to calling :meth:`lookup`
        per element (same interpolation bracketing, same clamp and
        blend operation order), which is what lets the batch prediction
        path stand in for the scalar one without moving any float.

        Raises
        ------
        ModelError
            If the matrix still has unfilled cells.
        """
        self._float_table()  # raises on an incomplete matrix
        pressure_in = np.asarray(pressures, dtype=float)
        count_in = np.asarray(counts, dtype=float)
        out = np.ones(pressure_in.shape, dtype=float)
        active = (count_in > 0.0) & (pressure_in > 0.0)
        if not active.any():
            return out
        count = np.minimum(count_in[active], self.max_count)
        levels = self.pressures
        pressure = np.minimum(pressure_in[active], levels[-1])

        # Count-axis interpolation: every sensitivity curve shares the
        # count axis, so one bracketing serves all rows at once.
        columns = _interp_rows(count, self.counts, self.values)

        result = np.empty(count.size, dtype=float)
        below = pressure <= levels[0]
        if below.any():
            fraction = pressure[below] / levels[0]
            result[below] = 1.0 + (columns[0, below] - 1.0) * fraction
        above = ~below
        if above.any():
            result[above] = _interp_per_column(
                pressure[above], levels, columns[:, above]
            )
        out[active] = result
        return out

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return {
            "pressures": self.pressures.tolist(),
            "counts": self.counts.tolist(),
            "values": self.values.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PropagationMatrix":
        """Inverse of :meth:`to_dict`."""
        return cls(payload["pressures"], payload["counts"], np.array(payload["values"]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PropagationMatrix(levels={len(self.pressures)}, "
            f"counts={self.counts.tolist()})"
        )


def _interp(x: float, xp: Sequence[float], fp: Sequence[float], j: int):
    """``np.interp(x, xp, fp)``'s C arithmetic, exact-knot shortcut and
    NaN fallback for ``x >= xp[0]``, given ``j = bisect_right(xp, x) - 1``.
    """
    if j == len(xp) - 1 or xp[j] == x:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    value = slope * (x - xp[j]) + fp[j]
    if value != value:
        value = slope * (x - xp[j + 1]) + fp[j + 1]
        if value != value and fp[j] == fp[j + 1]:
            value = fp[j]
    return value


def _interp_per_column(
    x: np.ndarray, xp: np.ndarray, fp: np.ndarray
) -> np.ndarray:
    """``np.interp(x[i], xp, fp[:, i])`` for every ``i``, bit-identically.

    ``np.interp`` only broadcasts over ``x``, not over per-element
    ordinate columns, so the pressure-axis interpolation replicates its
    C kernel by hand: bracket with a right-sided binary search, then
    apply the identical slope/offset arithmetic (including the exact-knot
    shortcut and the NaN fallback recomputation from the right knot).
    Inputs must already satisfy ``xp[0] < x <= xp[-1]``.
    """
    index = np.searchsorted(xp, x, side="right") - 1
    columns = np.arange(x.size)
    result = np.empty(x.size, dtype=float)
    last = index == len(xp) - 1
    result[last] = fp[-1, columns[last]]
    rest = ~last
    j = index[rest]
    col = columns[rest]
    x_rest = x[rest]
    left = fp[j, col]
    slope = (fp[j + 1, col] - left) / (xp[j + 1] - xp[j])
    value = slope * (x_rest - xp[j]) + left
    overflow = np.isnan(value)
    if overflow.any():
        value[overflow] = (slope * (x_rest - xp[j + 1]) + fp[j + 1, col])[
            overflow
        ]
        flat = np.isnan(value) & (left == fp[j + 1, col])
        value[flat] = left[flat]
    result[rest] = np.where(xp[j] == x_rest, left, value)
    return result


def _interp_rows(
    x: np.ndarray, xp: np.ndarray, fp: np.ndarray
) -> np.ndarray:
    """``np.interp(x, xp, fp[i])`` for every row ``i``, bit-identically.

    All rows share one abscissa, so a single right-sided bracketing of
    ``x`` serves the whole ``(rows, len(xp))`` ordinate table; the
    slope/offset arithmetic, the below-/above-range clamps, the
    exact-knot shortcut, and the NaN fallback replicate ``np.interp``'s
    C kernel per element (see :func:`_interp_per_column`).  Returns a
    ``(rows, x.size)`` array.
    """
    index = np.searchsorted(xp, x, side="right") - 1
    out = np.empty((fp.shape[0], x.size), dtype=float)
    under = index < 0
    if under.any():
        out[:, under] = fp[:, :1]
    last = index == len(xp) - 1
    if last.any():
        out[:, last] = fp[:, -1:]
    rest = ~(under | last)
    if rest.any():
        j = index[rest]
        x_rest = x[rest]
        left = fp[:, j]
        right = fp[:, j + 1]
        slope = (right - left) / (xp[j + 1] - xp[j])
        value = slope * (x_rest - xp[j]) + left
        overflow = np.isnan(value)
        if overflow.any():
            value[overflow] = (slope * (x_rest - xp[j + 1]) + right)[
                overflow
            ]
            flat = np.isnan(value) & (left == right)
            value[flat] = left[flat]
        out[:, rest] = np.where(xp[j] == x_rest, left, value)
    return out
