"""Figure 8: model validation with pairwise co-runs.

Runs every distributed workload together with every benchmark
application (including itself) across the full cluster, and compares
the model's predicted normalized time against the measured one.  The
paper reports per-workload average errors mostly under 10% (Spark apps
higher, driven by the unpredictable M.Gems co-runner); the same
structure emerges here because the model cannot see master-node
pressure asymmetry, pressure-combination surcharges, or run-to-run
noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.errors import ErrorSummary, absolute_percent_error
from repro.analysis.reporting import format_table
from repro.experiments.context import ExperimentContext, default_context


@dataclass(frozen=True)
class PairObservation:
    """One co-run: predicted and measured normalized time of the target."""

    target: str
    co_runner: str
    predicted: float
    actual: float

    @property
    def error_percent(self) -> float:
        """Absolute percentage prediction error."""
        return absolute_percent_error(self.predicted, self.actual)


@dataclass(frozen=True)
class Fig8Result:
    """All pairwise observations, grouped by target workload."""

    observations: Tuple[PairObservation, ...]

    def of_target(self, target: str) -> List[PairObservation]:
        """Observations where ``target`` is the predicted application."""
        return [o for o in self.observations if o.target == target]

    def summary(self, target: str) -> ErrorSummary:
        """Error summary (mean + percentile bars) for one target."""
        return ErrorSummary.of([o.error_percent for o in self.of_target(target)])

    def average_errors(self) -> Dict[str, float]:
        """Figure 8's bar heights: mean error per target workload."""
        targets = sorted({o.target for o in self.observations})
        return {t: self.summary(t).mean for t in targets}

    def render(self) -> str:
        """Figure 8 as text: mean error with 25/75 percentile bars."""
        rows = []
        for target in sorted({o.target for o in self.observations}):
            s = self.summary(target)
            rows.append((target, s.mean, s.p25, s.p75))
        return format_table(
            ["Workload", "Avg error(%)", "p25(%)", "p75(%)"], rows
        )


def predict_pair(context: ExperimentContext, target: str, co_runner: str) -> float:
    """Model prediction for ``target`` co-located with ``co_runner``.

    Both applications span every node (Section 4.3's configuration),
    so the target sees the co-runner's bubble score on all nodes.
    """
    model = context.model
    score = model.profile(co_runner).bubble_score
    vector = [score] * context.runner.num_nodes
    return model.predict_heterogeneous(target, vector)


def run_fig8(
    context: ExperimentContext | None = None,
    *,
    targets: Sequence[str] | None = None,
    co_runners: Sequence[str] | None = None,
    reps: int = 1,
) -> Fig8Result:
    """Run the pairwise validation grid.

    Parameters
    ----------
    context:
        Shared experiment context.
    targets:
        Workloads whose performance is predicted (distributed apps).
    co_runners:
        Co-located applications (all 18 by default, including the
        targets themselves).
    reps:
        Independent measured repetitions per pair.
    """
    context = context or default_context()
    targets = list(targets or context.distributed_workloads())
    if co_runners is None:
        co_runners = list(context.distributed_workloads()) + list(
            context.batch_workloads()
        )
    pairs = [
        (target, co_runner, rep)
        for target in targets
        for co_runner in co_runners
        for rep in range(reps)
    ]
    results = [
        context.runner.corun_pair(target, co_runner, rep=rep)
        for target, co_runner, rep in pairs
    ]
    predictions = {
        (target, co_runner): predict_pair(context, target, co_runner)
        for target in targets
        for co_runner in co_runners
    }
    observations: List[PairObservation] = []
    for (target, co_runner, rep), times in zip(pairs, results):
        observations.append(
            PairObservation(
                target=target,
                co_runner=co_runner,
                predicted=predictions[(target, co_runner)],
                actual=times[f"{target}#0"],
            )
        )
    return Fig8Result(observations=tuple(observations))
