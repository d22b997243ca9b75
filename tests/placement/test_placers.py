"""Tests for the QoS-aware and throughput placers on a synthetic model."""

import numpy as np
import pytest

from repro.cluster.cluster import ClusterSpec
from repro.core.curves import PropagationMatrix
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.errors import PlacementError
from repro.placement.annealing import AnnealingSchedule
from repro.placement.assignment import InstanceSpec
from repro.placement.objectives import QoSConstraint, predict_placement
from repro.placement.qos import QoSAwarePlacer
from repro.placement.throughput import ThroughputPlacer

SPEC = ClusterSpec(num_nodes=4)
SCHEDULE = AnnealingSchedule(iterations=400, restarts=2)


def make_matrix(max_slowdown: float) -> PropagationMatrix:
    """High-propagation shape over counts 0..2 at pressures 4 and 8."""
    amplitude = max_slowdown - 1.0
    values = np.array(
        [
            [1.0, 1.0 + 0.45 * amplitude, 1.0 + 0.5 * amplitude],
            [1.0, 1.0 + 0.9 * amplitude, 1.0 + amplitude],
        ]
    )
    return PropagationMatrix([4.0, 8.0], [0.0, 1.0, 2.0], values)


def make_model() -> InterferenceModel:
    profiles = {
        "loud": InterferenceProfile(
            workload="loud", matrix=make_matrix(1.2),
            policy_name="N+1 MAX", bubble_score=8.0,
        ),
        "quiet": InterferenceProfile(
            workload="quiet", matrix=make_matrix(1.05),
            policy_name="INTERPOLATE", bubble_score=0.5,
        ),
        "sensitive": InterferenceProfile(
            workload="sensitive", matrix=make_matrix(2.0),
            policy_name="N+1 MAX", bubble_score=2.0,
        ),
        "target": InterferenceProfile(
            workload="target", matrix=make_matrix(1.6),
            policy_name="N+1 MAX", bubble_score=1.0,
        ),
    }
    return InterferenceModel(profiles)


class _CountingModel:
    """Model proxy logging each scalar prediction's name layout."""

    def __init__(self, model):
        self._model = model
        self.layouts = []

    def __getattr__(self, name):
        return getattr(self._model, name)

    def predict_under_corunners(self, workload, nodes, co_runners):
        self.layouts.append(
            (workload, tuple(tuple(co_runners[node]) for node in nodes))
        )
        return self._model.predict_under_corunners(workload, nodes, co_runners)


def instances():
    return [
        InstanceSpec("target#0", "target", num_units=2),
        InstanceSpec("loud#1", "loud", num_units=2),
        InstanceSpec("quiet#2", "quiet", num_units=2),
        InstanceSpec("sensitive#3", "sensitive", num_units=2),
    ]


class TestThroughputPlacer:
    def test_best_pairs_loud_with_insensitive(self):
        # The only good matching pairs the loud app with the quiet
        # (insensitive) one and keeps the sensitive app away from it.
        placer = ThroughputPlacer(make_model(), SPEC, schedule=SCHEDULE, seed=1)
        result = placer.best(instances())
        sensitive_co = result.placement.co_runner_workloads("sensitive#3")
        partners = {w for ws in sensitive_co.values() for w in ws}
        assert "loud" not in partners

    def test_worst_exceeds_best(self):
        placer = ThroughputPlacer(make_model(), SPEC, schedule=SCHEDULE, seed=2)
        best = placer.best(instances())
        worst = placer.worst(instances())
        assert sum(worst.predictions.values()) > sum(best.predictions.values())

    def test_predictions_cover_instances(self):
        placer = ThroughputPlacer(make_model(), SPEC, schedule=SCHEDULE, seed=3)
        result = placer.best(instances())
        assert set(result.predictions) == {
            "target#0", "loud#1", "quiet#2", "sensitive#3"
        }


class TestQoSAwarePlacer:
    def test_protects_target(self):
        constraint = QoSConstraint("target#0", 1.15)
        placer = QoSAwarePlacer(
            make_model(), SPEC, [constraint], schedule=SCHEDULE, seed=4
        )
        result = placer.place(instances())
        assert result.predicted_feasible
        assert result.predictions["target#0"] <= 1.15

    def test_feasible_solution_keeps_loud_away(self):
        constraint = QoSConstraint("target#0", 1.15)
        placer = QoSAwarePlacer(
            make_model(), SPEC, [constraint], schedule=SCHEDULE, seed=5
        )
        result = placer.place(instances())
        partners = {
            w
            for ws in result.placement.co_runner_workloads("target#0").values()
            for w in ws
        }
        assert "loud" not in partners

    def test_infeasible_reports_honestly(self):
        # A bound below any achievable time: everything shares nodes
        # with someone, so 1.0 is unattainable and the result must not
        # claim feasibility.
        constraint = QoSConstraint("sensitive#3", 1.0)
        placer = QoSAwarePlacer(
            make_model(), SPEC, [constraint], schedule=SCHEDULE, seed=6
        )
        result = placer.place(instances())
        assert not result.predicted_feasible

    def test_multiple_constraints(self):
        constraints = [
            QoSConstraint("target#0", 1.3),
            QoSConstraint("sensitive#3", 1.3),
        ]
        placer = QoSAwarePlacer(
            make_model(), SPEC, constraints, schedule=SCHEDULE, seed=7
        )
        result = placer.place(instances())
        predictions = predict_placement(make_model(), result.placement)
        assert predictions["target#0"] <= 1.3 or not result.predicted_feasible

    def test_unknown_constraint_keys_are_named_before_searching(self):
        constraints = [
            QoSConstraint("nope#9"),
            QoSConstraint("target#0"),
            QoSConstraint("gone#5"),
        ]
        model = _CountingModel(make_model())
        placer = QoSAwarePlacer(model, SPEC, constraints, schedule=SCHEDULE)
        with pytest.raises(PlacementError, match="nope#9, gone#5$"):
            placer.place(instances())
        assert model.layouts == []

    def test_one_prediction_per_layout_per_search(self):
        # Both phases share one memo keyed on co-runner names per node,
        # so no layout is predicted twice, whichever nodes it sits on.
        model = _CountingModel(make_model())
        placer = QoSAwarePlacer(
            model, SPEC, [QoSConstraint("target#0", 1.15)],
            schedule=SCHEDULE, seed=4,
        )
        result = placer.place(instances())
        assert result.predicted_feasible
        assert model.layouts
        assert len(model.layouts) == len(set(model.layouts))
