"""Cost/accuracy comparison of profiling algorithms (Section 4.2).

Runs the four profilers — binary-brute, binary-optimized, random-30%,
random-50% — for a set of workloads against the exhaustively-measured
ground-truth matrix, producing the rows of Table 3 and the per-workload
series of Figures 6 and 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro._util import stable_seed
from repro.core.curves import PropagationMatrix
from repro.core.profiling.binary import (
    DEFAULT_THRESHOLD,
    binary_brute,
    binary_optimized,
)
from repro.core.profiling.plan import (
    MeasurementOracle,
    ProfilingOutcome,
    ProfilingSession,
)
from repro.core.profiling.random_sampling import random_sampling

#: The four algorithms of Table 3, in paper order.
ALGORITHM_ORDER: Tuple[str, ...] = (
    "binary-optimized",
    "binary-brute",
    "random-50%",
    "random-30%",
)


def exhaustive_truth(
    oracle: MeasurementOracle, pressures: Sequence[float], counts: Sequence[float]
) -> PropagationMatrix:
    """Measure every setting: the ground truth estimates are scored against."""
    matrix = PropagationMatrix.empty(pressures, counts)
    session = ProfilingSession(oracle)
    for i in range(matrix.num_levels):
        for j in range(1, len(matrix.counts)):
            matrix.set(
                i, j, session.measure(float(matrix.pressures[i]), int(matrix.counts[j]))
            )
    return matrix


@dataclass(frozen=True)
class ProfilerScore:
    """Cost and accuracy of one algorithm on one workload."""

    algorithm: str
    workload: str
    cost_percent: float
    error_percent: float


@dataclass(frozen=True)
class ProfilerComparison:
    """All scores for a workload set (the data behind Table 3, Fig 6-7)."""

    scores: Tuple[ProfilerScore, ...]

    def by_algorithm(self, algorithm: str) -> List[ProfilerScore]:
        """Scores of one algorithm across workloads."""
        return [s for s in self.scores if s.algorithm == algorithm]

    def average_cost(self, algorithm: str) -> float:
        """Mean profiling cost % across workloads (Table 3 column)."""
        return float(np.mean([s.cost_percent for s in self.by_algorithm(algorithm)]))

    def average_error(self, algorithm: str) -> float:
        """Mean prediction error % across workloads (Table 3 column)."""
        return float(np.mean([s.error_percent for s in self.by_algorithm(algorithm)]))

    def table3_rows(self) -> List[Tuple[str, float, float]]:
        """(algorithm, avg cost %, avg error %) rows in paper order."""
        return [
            (name, self.average_cost(name), self.average_error(name))
            for name in ALGORITHM_ORDER
        ]


def run_profilers(
    oracle: MeasurementOracle,
    pressures: Sequence[float],
    counts: Sequence[float],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    seed: object = 11,
) -> Dict[str, ProfilingOutcome]:
    """Run all four profiling algorithms for one workload."""
    outcomes = {
        "binary-brute": binary_brute(oracle, pressures, counts, threshold=threshold),
        "binary-optimized": binary_optimized(
            oracle, pressures, counts, threshold=threshold
        ),
        "random-50%": random_sampling(
            oracle, pressures, counts, fraction=0.5,
            seed=stable_seed(seed, oracle.abbrev, 50),
        ),
        "random-30%": random_sampling(
            oracle, pressures, counts, fraction=0.3,
            seed=stable_seed(seed, oracle.abbrev, 30),
        ),
    }
    return outcomes
