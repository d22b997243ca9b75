"""Interference-aware placement algorithms (the paper's case studies)."""

from repro.placement.annealing import (
    AnnealingSchedule,
    SearchResult,
    SimulatedAnnealingPlacer,
)
from repro.placement.assignment import InstanceSpec, Placement, units_moved
from repro.placement.objectives import (
    PredictionEnergy,
    QoSConstraint,
    SearchState,
    WeightedTimeEnergy,
    predict_placement,
    weighted_average_speedup,
    weighted_total_time,
)
from repro.placement.qos import QoSAwarePlacer, QoSPlacementResult
from repro.placement.search import (
    GreedyPlacer,
    average_random_total_time,
    exhaustive_best,
    random_placements,
)
from repro.placement.throughput import ThroughputPlacementResult, ThroughputPlacer

__all__ = [
    "AnnealingSchedule",
    "GreedyPlacer",
    "InstanceSpec",
    "Placement",
    "PredictionEnergy",
    "WeightedTimeEnergy",
    "QoSAwarePlacer",
    "QoSConstraint",
    "QoSPlacementResult",
    "SearchResult",
    "SearchState",
    "SimulatedAnnealingPlacer",
    "ThroughputPlacementResult",
    "ThroughputPlacer",
    "average_random_total_time",
    "exhaustive_best",
    "predict_placement",
    "random_placements",
    "units_moved",
    "weighted_average_speedup",
    "weighted_total_time",
]
