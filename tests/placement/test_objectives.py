"""Tests for placement objectives and constraints."""

import pytest

from repro.cluster.cluster import ClusterSpec
from repro.errors import PlacementError
from repro.placement.assignment import InstanceSpec, Placement
from repro.placement.objectives import (
    QoSConstraint,
    weighted_average_speedup,
    weighted_total_time,
)

SPEC = ClusterSpec(num_nodes=4)


def two_apps(weight_b=1.0):
    return [
        InstanceSpec("a", "a", num_units=2),
        InstanceSpec("b", "b", num_units=2, weight=weight_b),
    ]


def placement(weight_b=1.0):
    return Placement(
        SPEC,
        two_apps(weight_b),
        {"a": [0, 1], "b": [2, 3]},
    )


class TestWeightedTotalTime:
    def test_equal_weights(self):
        assert weighted_total_time({"a": 1.2, "b": 1.4}, placement()) == (
            pytest.approx(2.6)
        )

    def test_weights_scale(self):
        total = weighted_total_time({"a": 1.0, "b": 2.0}, placement(weight_b=0.5))
        assert total == pytest.approx(2.0)


class TestSpeedup:
    def test_reference_equals_times_gives_one(self):
        times = {"a": 1.2, "b": 1.4}
        assert weighted_average_speedup(times, times, placement()) == 1.0

    def test_faster_gives_speedup(self):
        worst = {"a": 2.0, "b": 2.0}
        best = {"a": 1.0, "b": 2.0}
        assert weighted_average_speedup(best, worst, placement()) == 1.5

    def test_zero_time_rejected(self):
        with pytest.raises(PlacementError):
            weighted_average_speedup({"a": 0.0, "b": 1.0}, {"a": 1, "b": 1}, placement())


class TestQoSConstraint:
    def test_satisfied(self):
        constraint = QoSConstraint("a", 1.25)
        assert constraint.satisfied_by({"a": 1.2})
        assert not constraint.satisfied_by({"a": 1.3})

    def test_violation_magnitude(self):
        constraint = QoSConstraint("a", 1.25)
        assert constraint.violation({"a": 1.45}) == pytest.approx(0.2)
        assert constraint.violation({"a": 1.0}) == 0.0

    def test_unsatisfiable_bound_rejected(self):
        with pytest.raises(PlacementError):
            QoSConstraint("a", 0.9)

    def test_default_is_80_percent(self):
        assert QoSConstraint("a").max_normalized_time == 1.25
