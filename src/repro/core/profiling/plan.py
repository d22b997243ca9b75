"""Measurement bookkeeping for profiling algorithms.

Profiling cost in the paper (Table 3) is the fraction of all
interference settings an algorithm actually measures, so the profilers
need precise accounting of *which* cells of the propagation matrix they
measured versus interpolated.

Two layers provide that:

* :class:`MeasurementOracle` — caches normalized execution times per
  (workload, pressure, count) so that the exhaustive ground-truth
  matrix and every profiler observe the *same* measurement for the
  same setting (as re-reading a run log would), while each fresh
  setting costs one simulated cluster run.
* :class:`ProfilingSession` — tracks the distinct settings one
  algorithm requested, yielding its cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

import numpy as np

from repro.cluster.contention import ContentionDomain
from repro.core.curves import PropagationMatrix
from repro.errors import MeasurementFault, ProfilingError
from repro.obs import recorder as _obs
from repro.sim.runner import ClusterRunner

#: Normalized times above this are treated as measurement outliers when
#: fault injection is active.  The paper's slowdowns top out well under
#: 10x (Figure 3); an injected outlier (default 25x) clears the bound,
#: while an injected straggler (default 1.5x) never does — stragglers
#: are real slow runs and must stay in the data.
OUTLIER_BOUND = 10.0

#: Total readings behind a robust (median-of-k) probe after an outlier
#: is detected: the suspect reading plus ``REPROBE_K - 1`` independent
#: repetitions.
REPROBE_K = 3

#: Floor of the conservative fallback installed when a probe exhausts
#: its retry budget: at least this normalized slowdown is assumed.
FALLBACK_FLOOR = 2.0


class MeasurementOracle:
    """Cached access to normalized measurements for one workload.

    When the runner injects faults, the oracle is the robust layer of
    the profiling stack: a reading above :data:`OUTLIER_BOUND` triggers
    a median-of-:data:`REPROBE_K` re-probe (each repetition is its own
    ``profile.probe`` span with ``reprobe=True``, so retry cost folds
    into the Table 3 accounting derivable from the trace), and a
    reading that exhausts its retry budget is replaced by a
    conservative fallback (``fault.probe_fallback``) — the workload is
    then marked degraded on the runner.

    Parameters
    ----------
    runner:
        The measurement environment.
    abbrev:
        Workload under profiling.
    domain:
        Contention resource the settings describe, passed on to
        :meth:`~repro.sim.runner.ClusterRunner.measure`: COMPUTE (the
        default) probes with cache/memory-bandwidth bubbles, NETWORK
        with traffic-generator bubbles.  Every profiler runs unchanged
        on either domain — the oracle is the only routing point.
    """

    def __init__(
        self,
        runner: ClusterRunner,
        abbrev: str,
        span: int | None = None,
        *,
        domain: ContentionDomain = ContentionDomain.COMPUTE,
    ) -> None:
        self.runner = runner
        self.abbrev = abbrev
        self.span = span
        self.domain = ContentionDomain.parse(domain)
        self._network = self.domain is ContentionDomain.NETWORK
        self._cache: Dict[Tuple[float, int], float] = {}

    def normalized(self, pressure: float, count: int) -> float:
        """Normalized execution time at a homogeneous setting."""
        if count == 0 or pressure == 0.0:
            return 1.0
        key = (float(pressure), int(count))
        value = self._cache.get(key)
        if value is None:
            value = self._probe(float(pressure), int(count))
            self._cache[key] = value
        else:
            _obs.RECORDER.count("profile.probe_memo_hit")
        return value

    def _probe(self, pressure: float, count: int) -> float:
        """Measure one distinct setting, robustly under fault injection.

        One ``profile.probe`` span per reading actually taken —
        counting these spans per workload reproduces the Table 3 cost
        accounting from the trace alone, re-probes included.
        """
        try:
            with _obs.RECORDER.span(
                "profile.probe",
                workload=self.abbrev,
                pressure=pressure,
                count=count,
                **({"domain": "network"} if self._network else {}),
            ) as span:
                value = self.runner.measure(
                    self.abbrev, pressure, count, span=self.span,
                    domain=self.domain,
                )
                span.set(normalized=value)
            if self.runner.faults_active and value > OUTLIER_BOUND:
                value = self._reprobe(pressure, count, value)
        except MeasurementFault:
            value = self._fallback()
        return value

    def _reprobe(self, pressure: float, count: int, suspect: float) -> float:
        """Median-of-k re-probe after an outlier reading.

        The suspect reading is kept in the pool — if the setting really
        is that slow, two honest repetitions will agree with it.
        """
        _obs.RECORDER.count("fault.outlier_detected")
        readings = [suspect]
        for rep in range(1, REPROBE_K):
            _obs.RECORDER.count("retry.reprobe")
            with _obs.RECORDER.span(
                "profile.probe",
                workload=self.abbrev,
                pressure=pressure,
                count=count,
                reprobe=True,
                **({"domain": "network"} if self._network else {}),
            ) as span:
                value = self.runner.measure(
                    self.abbrev, pressure, count, rep=rep, span=self.span,
                    domain=self.domain,
                )
                span.set(normalized=value)
            readings.append(value)
        readings.sort()
        return readings[len(readings) // 2]

    def _fallback(self) -> float:
        """Conservative stand-in for a setting that could not be read.

        At least as slow as every setting measured so far (and never
        below :data:`FALLBACK_FLOOR`), so the profile over-predicts
        rather than under-predicts interference at the unreadable cell.
        """
        _obs.RECORDER.count("fault.probe_fallback")
        return max(
            max(self._cache.values(), default=0.0), FALLBACK_FLOOR
        )

    def is_cached(self, pressure: float, count: int) -> bool:
        """Whether a setting has already been measured (or primed)."""
        return (float(pressure), int(count)) in self._cache

    def prime(self, pressure: float, count: int, value: float) -> None:
        """Install a measurement obtained out-of-band (batch prewarm).

        Lets callers fan a block of settings out through
        :meth:`~repro.sim.runner.ClusterRunner.measure_many` and hand
        the results to the oracle; an already-cached setting keeps its
        existing value.
        """
        if count == 0 or pressure == 0.0:
            return
        key = (float(pressure), int(count))
        if key not in self._cache:
            # A primed setting was still measured (out-of-band, via the
            # batch fan-out), so it gets its probe span too.
            with _obs.RECORDER.span(
                "profile.probe",
                workload=self.abbrev,
                pressure=float(pressure),
                count=int(count),
                primed=True,
            ) as span:
                span.set(normalized=float(value))
            self._cache[key] = float(value)

    @property
    def distinct_settings_measured(self) -> int:
        """Number of distinct settings run so far."""
        return len(self._cache)


@dataclass
class ProfilingSession:
    """One profiling algorithm's view of the oracle, with cost tracking."""

    oracle: MeasurementOracle
    cells: Set[Tuple[float, int]] = field(default_factory=set)

    def measure(self, pressure: float, count: int) -> float:
        """Measure a setting, recording it toward this session's cost."""
        if count > 0 and pressure > 0.0:
            self.cells.add((float(pressure), int(count)))
        return self.oracle.normalized(pressure, count)

    @property
    def settings_measured(self) -> int:
        """Distinct non-trivial settings this session requested."""
        return len(self.cells)


@dataclass(frozen=True)
class ProfilingOutcome:
    """Result of one profiling algorithm on one workload."""

    algorithm: str
    workload: str
    matrix: PropagationMatrix
    settings_measured: int
    total_settings: int

    def __post_init__(self) -> None:
        if self.total_settings <= 0:
            raise ProfilingError("total_settings must be positive")
        if not 0 <= self.settings_measured <= self.total_settings:
            raise ProfilingError(
                f"settings_measured {self.settings_measured} outside "
                f"[0, {self.total_settings}]"
            )
        if not self.matrix.is_complete():
            raise ProfilingError(
                f"{self.algorithm} left unfilled cells for {self.workload}"
            )

    @property
    def cost_percent(self) -> float:
        """Profiling cost as in Table 3: % of settings measured."""
        return 100.0 * self.settings_measured / self.total_settings

    def error_against(self, truth: PropagationMatrix) -> float:
        """Average % error of the matrix against an exhaustive truth.

        Only the interference cells (count > 0) are compared; the
        no-interference column is 1 by definition on both sides.
        """
        if truth.values.shape != self.matrix.values.shape:
            raise ProfilingError("matrices have different shapes")
        estimated = self.matrix.values[:, 1:]
        actual = truth.values[:, 1:]
        return float(np.mean(np.abs(estimated - actual) / actual) * 100.0)


def total_settings_of(matrix: PropagationMatrix) -> int:
    """Number of measurable settings in a matrix grid (count > 0 cells)."""
    return matrix.num_levels * (len(matrix.counts) - 1)
