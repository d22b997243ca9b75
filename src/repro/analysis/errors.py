"""Error metrics used throughout the evaluation.

The paper reports prediction quality as absolute percentage error of
normalized execution times, summarized per workload with means and
percentile bars (Figure 8 shows 25%-75% bars; Figure 4 shows min/max
bars).  This module centralizes those computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError


def absolute_percent_error(predicted: float, actual: float) -> float:
    """``|predicted - actual| / actual * 100``.

    Raises
    ------
    ConfigurationError
        If ``actual`` is non-positive (normalized times are >= 1).
    """
    if actual <= 0:
        raise ConfigurationError("actual value must be positive")
    return abs(predicted - actual) / actual * 100.0


@dataclass(frozen=True)
class ErrorSummary:
    """Summary statistics of a set of percentage errors."""

    mean: float
    std: float
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float
    count: int

    @classmethod
    def of(cls, errors: Sequence[float]) -> "ErrorSummary":
        """Summarize a non-empty error sample."""
        arr = np.asarray(list(errors), dtype=float)
        if arr.size == 0:
            raise ConfigurationError("cannot summarize an empty error sample")
        return cls(
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            minimum=float(arr.min()),
            p25=float(np.percentile(arr, 25)),
            median=float(np.percentile(arr, 50)),
            p75=float(np.percentile(arr, 75)),
            maximum=float(arr.max()),
            count=int(arr.size),
        )
