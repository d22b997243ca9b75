"""Figure 10: QoS-aware placement, model vs naive.

For each QoS mix, both the interference-aware model and the naive
proportional model drive the QoS-aware annealing placer; the resulting
placements are then *actually run* (ground truth) to check whether the
mission-critical application really kept 80% of its solo performance,
and what total weighted runtime the cluster paid.  The paper's result:
the proposed model always holds the QoS, the naive model sometimes
violates it, at similar total runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro._util import stable_seed
from repro.analysis.reporting import format_table
from repro.experiments.context import ExperimentContext, default_context
from repro.experiments.table5_mixes import MixSpec, QOS_MIXES
from repro.placement.annealing import AnnealingSchedule
from repro.placement.assignment import Placement
from repro.placement.objectives import QoSConstraint, weighted_total_time
from repro.placement.qos import QoSAwarePlacer

#: QoS requirement: guarantee 80% of solo performance, as in the paper.
QOS_FRACTION: float = 0.8
QOS_LIMIT: float = 1.0 / QOS_FRACTION


@dataclass(frozen=True)
class QoSOutcome:
    """Ground-truth outcome of one placement for one mix."""

    model_name: str
    placement: Placement
    measured_times: Dict[str, float]
    qos_satisfied: bool
    total_weighted_time: float


@dataclass(frozen=True)
class Fig10Result:
    """Per-mix outcomes under both models."""

    outcomes: Dict[str, Dict[str, QoSOutcome]]  # mix name -> model -> outcome
    qos_limit: float

    def rows(self) -> List[Tuple[str, str, str, float, float]]:
        """(mix, model QoS, naive QoS, model total, naive total) rows."""
        rows = []
        for mix_name, by_model in self.outcomes.items():
            model = by_model["model"]
            naive = by_model["naive"]
            rows.append(
                (
                    mix_name,
                    "OK" if model.qos_satisfied else "VIOLATED",
                    "OK" if naive.qos_satisfied else "VIOLATED",
                    model.total_weighted_time,
                    naive.total_weighted_time,
                )
            )
        return rows

    def render(self) -> str:
        """Figure 10 as text."""
        return format_table(
            ["Mix", "QoS (model)", "QoS (naive)", "Total (model)", "Total (naive)"],
            self.rows(),
        )


def _evaluate(
    context: ExperimentContext,
    mix: MixSpec,
    placement: Placement,
    constraint: QoSConstraint,
    model_name: str,
    rep: int,
    reps: int = 3,
) -> QoSOutcome:
    """Ground-truth check of a placement, averaged over ``reps`` runs."""
    samples = [
        context.runner.run_deployments(placement.deployments(), rep=rep + i)
        for i in range(reps)
    ]
    times = {
        key: sum(s[key] for s in samples) / len(samples) for key in samples[0]
    }
    return QoSOutcome(
        model_name=model_name,
        placement=placement,
        measured_times=times,
        qos_satisfied=constraint.satisfied_by(times),
        total_weighted_time=weighted_total_time(times, placement),
    )


def run_fig10(
    context: ExperimentContext | None = None,
    *,
    mixes: Sequence[MixSpec] | None = None,
    schedule: Optional[AnnealingSchedule] = None,
    qos_limit: float = QOS_LIMIT,
    seed: int = 5,
) -> Fig10Result:
    """Run the QoS placement comparison over the QoS mixes."""
    context = context or default_context()
    mixes = list(mixes or QOS_MIXES)
    schedule = schedule or AnnealingSchedule(iterations=1500, restarts=2)
    outcomes: Dict[str, Dict[str, QoSOutcome]] = {}
    for mix in mixes:
        instances = mix.instances()
        constraint = QoSConstraint(mix.qos_instance_key, qos_limit)
        by_model: Dict[str, QoSOutcome] = {}
        for model_name, model in (
            ("model", context.placement_model),
            ("naive", context.naive_placement_model),
        ):
            placer = QoSAwarePlacer(
                model,
                context.runner.spec,
                [constraint],
                schedule=schedule,
                seed=stable_seed(seed, mix.name, model_name),
            )
            result = placer.place(instances)
            by_model[model_name] = _evaluate(
                context, mix, result.placement, constraint, model_name, rep=seed
            )
        outcomes[mix.name] = by_model
    return Fig10Result(outcomes=outcomes, qos_limit=qos_limit)
