"""Shared experiment context.

Most experiments need the same expensive artifacts: the measurement
environment, exhaustively-measured propagation matrices (ground truth
for profiling-quality studies), and a profiled interference model (the
artifact Sections 4.3 and 5 consume).  :class:`ExperimentContext`
builds each lazily and caches it, and :func:`default_context` provides
a process-wide instance so a benchmark session profiles the cluster
once, like the paper's one-time profiling phase.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Sequence

from repro._util import stable_seed
from repro.apps.catalog import BATCH_WORKLOADS, DISTRIBUTED_WORKLOADS
from repro.core.builder import (
    build_batch_profiles,
    build_model,
    default_counts,
    default_pressures,
)
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.core.naive import NaiveProportionalModel
from repro.core.curves import PropagationMatrix
from repro.core.profiling.evaluation import exhaustive_truth
from repro.core.profiling.plan import MeasurementOracle
from repro.core.profiling.policy_selection import (
    PolicySelectionResult,
    select_policy,
)
from repro.sim.runner import ClusterRunner


class ExperimentContext:
    """Lazily-built shared artifacts for the paper's experiments.

    Parameters
    ----------
    runner:
        Measurement environment; defaults to the private 8-node testbed.
    seed:
        Root seed for sampling steps.
    policy_samples:
        Heterogeneous configurations per workload for policy selection.
    algorithm:
        Matrix-profiling algorithm used to build the working model.
    """

    def __init__(
        self,
        runner: Optional[ClusterRunner] = None,
        *,
        seed: int = 2016,
        policy_samples: int = 60,
        policy_reps: int = 1,
        algorithm: str = "binary-optimized",
        counts: Optional[Sequence[float]] = None,
    ) -> None:
        self.runner = runner or ClusterRunner(base_seed=seed)
        self.seed = seed
        self.policy_samples = policy_samples
        self.policy_reps = policy_reps
        self.algorithm = algorithm
        self.pressures = default_pressures()
        self.counts = (
            list(counts) if counts is not None
            else default_counts(self.runner.num_nodes)
        )
        self._oracles: Dict[str, MeasurementOracle] = {}
        self._truth: Dict[str, PropagationMatrix] = {}
        self._model: Optional[InterferenceModel] = None
        self._placement_model: Optional[InterferenceModel] = None
        self._selections: Dict[str, PolicySelectionResult] = {}
        self._scores: Dict[str, float] = {}

    #: Nodes each application spans in the Section 5 placements
    #: (16 VMs = 4 units per application).
    PLACEMENT_SPAN = 4

    # ------------------------------------------------------------------
    def oracle(self, abbrev: str) -> MeasurementOracle:
        """Shared (cached) measurement oracle for a workload."""
        if abbrev not in self._oracles:
            self._oracles[abbrev] = MeasurementOracle(self.runner, abbrev)
        return self._oracles[abbrev]

    def truth_matrix(self, abbrev: str) -> PropagationMatrix:
        """The exhaustively-measured propagation matrix of a workload."""
        if abbrev not in self._truth:
            self._truth[abbrev] = exhaustive_truth(
                self.oracle(abbrev), self.pressures, self.counts
            )
        return self._truth[abbrev]

    # ------------------------------------------------------------------
    @property
    def model(self) -> InterferenceModel:
        """The profiled interference model (distributed + batch apps).

        Matrices come from the binary-optimized profiler (the paper's
        recommended algorithm); heterogeneity policies are selected
        against the exhaustively-measured matrices, which the context
        already holds for Figure 3 / Table 3.  Selecting on the
        estimated matrices instead would stack the profiler's ~1-3%
        cell error on top of the sampling noise, and the N MAX /
        N+1 MAX distinction lives within exactly that margin.
        """
        if self._model is None:
            report = build_model(
                self.runner,
                DISTRIBUTED_WORKLOADS,
                algorithm=self.algorithm,
                policy_samples=self.policy_samples,
                policy_reps=self.policy_reps,
                pressures=self.pressures,
                counts=self.counts,
                seed=self.seed,
            )
            model = report.model
            self._scores.update(report.bubble_scores)
            for abbrev in DISTRIBUTED_WORKLOADS:
                selection = self.policy_selection(abbrev)
                profile = model.profile(abbrev)
                model.add_profile(
                    InterferenceProfile(
                        workload=abbrev,
                        matrix=profile.matrix,
                        policy_name=selection.best.policy_name,
                        bubble_score=profile.bubble_score,
                    )
                )
            build_batch_profiles(
                self.runner,
                model,
                BATCH_WORKLOADS,
                pressures=self.pressures,
                counts=self.counts,
            )
            self._model = model
        return self._model

    @property
    def naive_model(self) -> NaiveProportionalModel:
        """The naive proportional baseline sharing the model's profiles."""
        return NaiveProportionalModel(self.model)

    @property
    def placement_model(self) -> InterferenceModel:
        """The model profiled at the Section 5 deployment shape.

        Sensitivity curves depend on how many nodes the application
        spans, so the placement experiments (each application on 4 of
        the 8 hosts) use matrices profiled at span 4 with counts 0-4.
        Heterogeneity policies are application-intrinsic (Table 2 is
        selected once, in the full-span study of Section 3) and are
        inherited from the main model rather than re-selected on the
        much smaller span-4 configuration space.
        """
        if self._placement_model is None:
            span = self.PLACEMENT_SPAN
            report = build_model(
                self.runner,
                DISTRIBUTED_WORKLOADS,
                algorithm=self.algorithm,
                policy_samples=self.policy_samples,
                policy_reps=self.policy_reps,
                pressures=self.pressures,
                seed=self.seed + 1,
                span=span,
            )
            placement_model = report.model
            build_batch_profiles(
                self.runner,
                placement_model,
                BATCH_WORKLOADS,
                pressures=self.pressures,
                span=span,
            )
            for abbrev in placement_model.workloads:
                profile = placement_model.profile(abbrev)
                placement_model.add_profile(
                    InterferenceProfile(
                        workload=profile.workload,
                        matrix=profile.matrix,
                        policy_name=self.model.profile(abbrev).policy_name,
                        bubble_score=profile.bubble_score,
                    )
                )
            self._placement_model = placement_model
        return self._placement_model

    @property
    def naive_placement_model(self) -> NaiveProportionalModel:
        """Naive baseline over the span-4 placement profiles."""
        return NaiveProportionalModel(self.placement_model)

    def policy_selection(self, abbrev: str) -> PolicySelectionResult:
        """Policy selection against the exhaustive truth matrix."""
        if abbrev not in self._selections:
            self._selections[abbrev] = select_policy(
                self.runner,
                abbrev,
                self.truth_matrix(abbrev),
                samples=self.policy_samples,
                seed=stable_seed(self.seed, abbrev, "policy"),
                reps=self.policy_reps,
            )
        return self._selections[abbrev]

    def bubble_scores(self) -> Dict[str, float]:
        """Measured bubble scores of everything the model profiles."""
        self.model  # noqa: B018 - ensure built
        scores = dict(self._scores)
        for abbrev in BATCH_WORKLOADS:
            scores[abbrev] = self.model.profile(abbrev).bubble_score
        return scores

    def distributed_workloads(self) -> Sequence[str]:
        """The 12 distributed workloads of Table 1."""
        return DISTRIBUTED_WORKLOADS

    def batch_workloads(self) -> Sequence[str]:
        """The 6 SPEC CPU2006 co-runners of Table 1."""
        return BATCH_WORKLOADS


@lru_cache(maxsize=1)
def default_context() -> ExperimentContext:
    """Process-wide shared context (profile once, reuse everywhere).

    Policy selection runs with 100 samples rather than the paper's 60:
    the N MAX / N+1 MAX distinction sits within one standard deviation
    for several workloads (the paper's own Table 2 error bars overlap),
    and the experiments downstream of the selection deserve the
    tighter margin.  The sampling-cost study itself
    (:mod:`repro.experiments.fig4_heterogeneity`) reports the margin of
    error either way.
    """
    return ExperimentContext(policy_samples=100, policy_reps=2)
