"""Throughput-oriented placement (Section 5.3).

Without QoS constraints the placer simply minimizes the total weighted
normalized runtime — equivalently, maximizes consolidated throughput.
The paper also searches for the *worst* placement (the reference point
of Figure 11's speedups), which is the same annealing loop with the
objective negated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.cluster.cluster import ClusterSpec
from repro.placement.annealing import (
    AnnealingSchedule,
    SearchResult,
    SimulatedAnnealingPlacer,
)
from repro.placement.assignment import InstanceSpec, Placement
from repro.placement.objectives import WeightedTimeEnergy, predict_placement


@dataclass
class ThroughputPlacementResult:
    """Outcome of a throughput placement search."""

    placement: Placement
    predictions: Dict[str, float]
    search: SearchResult


class ThroughputPlacer:
    """Simulated-annealing placer maximizing overall throughput.

    Parameters
    ----------
    model:
        Prediction model; must expose ``predict_under_corunners``.
    cluster_spec:
        Cluster shape.
    schedule:
        Annealing schedule.
    seed:
        Search randomness.
    """

    def __init__(
        self,
        model,
        cluster_spec: ClusterSpec,
        *,
        schedule: Optional[AnnealingSchedule] = None,
        seed: object = 0,
    ) -> None:
        self.model = model
        self.cluster_spec = cluster_spec
        self.schedule = schedule or AnnealingSchedule()
        self.seed = seed

    def _search(
        self, instances: Sequence[InstanceSpec], sign: float
    ) -> ThroughputPlacementResult:
        energy = WeightedTimeEnergy(self.model, sign=sign)
        placer = SimulatedAnnealingPlacer(
            energy, schedule=self.schedule, seed=self.seed
        )
        result = placer.search(
            lambda seed: Placement.random(self.cluster_spec, instances, seed=seed)
        )
        return ThroughputPlacementResult(
            placement=result.placement,
            predictions=predict_placement(self.model, result.placement),
            search=result,
        )

    def best(self, instances: Sequence[InstanceSpec]) -> ThroughputPlacementResult:
        """Placement minimizing total weighted normalized runtime."""
        return self._search(instances, sign=1.0)

    def worst(self, instances: Sequence[InstanceSpec]) -> ThroughputPlacementResult:
        """Placement *maximizing* total runtime (Figure 11's baseline)."""
        return self._search(instances, sign=-1.0)
