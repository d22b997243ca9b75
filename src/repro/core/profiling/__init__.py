"""Profiling algorithms that construct interference models."""

from repro.core.profiling.binary import (
    DEFAULT_THRESHOLD,
    binary_brute,
    binary_optimized,
    interpolate_all,
    interpolate_col,
    interpolate_row,
    profile_binary_col,
    profile_binary_row,
)
from repro.core.profiling.evaluation import (
    ALGORITHM_ORDER,
    ProfilerComparison,
    ProfilerScore,
    exhaustive_truth,
    run_profilers,
)
from repro.core.profiling.plan import (
    MeasurementOracle,
    ProfilingOutcome,
    ProfilingSession,
    total_settings_of,
)
from repro.core.profiling.policy_selection import (
    PolicyEvaluation,
    PolicySelectionResult,
    heterogeneous_space_size,
    sample_heterogeneous_config,
    select_policy,
)
from repro.core.profiling.random_sampling import random_sampling

__all__ = [
    "ALGORITHM_ORDER",
    "DEFAULT_THRESHOLD",
    "MeasurementOracle",
    "PolicyEvaluation",
    "PolicySelectionResult",
    "ProfilerComparison",
    "ProfilerScore",
    "ProfilingOutcome",
    "ProfilingSession",
    "binary_brute",
    "binary_optimized",
    "exhaustive_truth",
    "heterogeneous_space_size",
    "interpolate_all",
    "interpolate_col",
    "interpolate_row",
    "profile_binary_col",
    "profile_binary_row",
    "random_sampling",
    "run_profilers",
    "sample_heterogeneous_config",
    "select_policy",
    "total_settings_of",
]
