"""Sampling statistics for the policy-selection procedure.

Section 3.3 justifies selecting the heterogeneity policy from 60
samples out of 12,870 configurations: with the observed standard
deviations the sample mean carries a margin of error of about ±1.7
(percentage points of error) at 99% confidence, using the normal
approximation with a finite-population correction.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

#: z quantiles for the confidence levels the paper discusses.
Z_SCORES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def finite_population_correction(sample_size: int, population_size: int) -> float:
    """``sqrt((N - n) / (N - 1))`` — shrinks the error for large samples.

    Raises
    ------
    ConfigurationError
        If sizes are non-positive or the sample exceeds the population.
    """
    if population_size <= 1:
        raise ConfigurationError("population must have at least 2 members")
    if not 0 < sample_size <= population_size:
        raise ConfigurationError("sample size must be in (0, population]")
    return math.sqrt((population_size - sample_size) / (population_size - 1))


def margin_of_error(
    sample: Sequence[float],
    *,
    population_size: int,
    confidence: float = 0.99,
) -> float:
    """Margin of error of the sample mean at ``confidence``.

    The paper's calculation: ``z * s / sqrt(n)`` with the finite
    population correction, assuming a normal population whose standard
    deviation follows the sample's.
    """
    if confidence not in Z_SCORES:
        raise ConfigurationError(
            f"confidence must be one of {sorted(Z_SCORES)}, got {confidence}"
        )
    arr = np.asarray(list(sample), dtype=float)
    if arr.size < 2:
        raise ConfigurationError("margin of error needs at least 2 samples")
    z = Z_SCORES[confidence]
    correction = finite_population_correction(int(arr.size), population_size)
    return float(z * arr.std(ddof=1) / math.sqrt(arr.size) * correction)
