"""Tests for incremental (delta) energy evaluation and parallel restarts.

The contract under test: the fast paths — per-swap delta evaluation,
fanned-out restarts, subsampled trajectories — must be *bit-identical*
to the slow paths they replace, not merely close.
"""

import numpy as np
import pytest

from repro.cluster.cluster import ClusterSpec
from repro.core.curves import PropagationMatrix
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.errors import PlacementError
from repro.placement.annealing import (
    AnnealingSchedule,
    MAX_TRAJECTORY_POINTS,
    SimulatedAnnealingPlacer,
)
from repro.placement.assignment import InstanceSpec, Placement
from repro.placement.objectives import (
    QoSConstraint,
    WeightedTimeEnergy,
    predict_placement,
    weighted_total_time,
)
from repro.placement.qos import (
    INFEASIBLE_ENERGY,
    PRESSURE_TIEBREAK,
    ConstrainedThroughputEnergy,
    FeasibilityEnergy,
)

SPEC = ClusterSpec(num_nodes=6)


def make_matrix(max_slowdown: float) -> PropagationMatrix:
    amplitude = max_slowdown - 1.0
    values = np.array(
        [
            [1.0, 1.0 + 0.4 * amplitude, 1.0 + 0.6 * amplitude, 1.0 + 0.7 * amplitude],
            [1.0, 1.0 + 0.8 * amplitude, 1.0 + 0.9 * amplitude, 1.0 + amplitude],
        ]
    )
    return PropagationMatrix([4.0, 8.0], [0.0, 1.0, 2.0, 3.0], values)


def make_model() -> InterferenceModel:
    profiles = {
        "loud": InterferenceProfile(
            workload="loud", matrix=make_matrix(1.3),
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
    }
    return InterferenceModel(profiles)


def instances():
    return [
        InstanceSpec("loud#0", "loud", num_units=3),
        InstanceSpec("quiet#1", "quiet", num_units=3),
        InstanceSpec("sensitive#2", "sensitive", num_units=3),
        InstanceSpec("loud#3", "loud", num_units=3),
    ]


def full_energy_callable(model):
    """The pre-delta-evaluation energy: a plain callable."""

    def energy(placement: Placement) -> float:
        return weighted_total_time(predict_placement(model, placement), placement)

    return energy


def assignment_of(placement: Placement):
    return {
        spec.instance_key: tuple(placement.nodes_of(spec.instance_key))
        for spec in placement.instances
    }


class TestSwapState:
    def test_swap_state_matches_full_state(self):
        model = make_model()
        energy = WeightedTimeEnergy(model)
        placement = Placement.random(SPEC, instances(), seed=3)
        state = energy.full_state(placement)
        node_a = placement.nodes_of("loud#0")[0]
        node_b = placement.nodes_of("quiet#1")[1]
        if node_a == node_b:
            pytest.skip("degenerate seed: same node on both sides")
        swapped = placement.swap_units("loud#0", 0, "quiet#1", 1)
        assert state.swap("loud#0", 0, "quiet#1", 1) == state.energy
        full = energy.full_state(swapped)
        assert state.predictions == full.predictions
        assert state.energy == full.energy
        assert state.placement() == swapped
        state.undo()
        start = energy.full_state(placement)
        assert state.predictions == start.predictions
        assert state.energy == start.energy
        assert state.placement() == placement

    def test_callable_protocol_matches_full_state(self):
        model = make_model()
        energy = WeightedTimeEnergy(model)
        placement = Placement.random(SPEC, instances(), seed=4)
        assert energy(placement) == energy.full_state(placement).energy

    def test_matches_plain_callable(self):
        model = make_model()
        placement = Placement.random(SPEC, instances(), seed=5)
        assert WeightedTimeEnergy(model)(placement) == (
            full_energy_callable(model)(placement)
        )


class TestIncrementalSearch:
    SCHEDULE = AnnealingSchedule(iterations=300, restarts=2)

    def test_search_from_bit_identical_to_full(self):
        model = make_model()
        initial = Placement.random(SPEC, instances(), seed=9)
        fast = SimulatedAnnealingPlacer(
            WeightedTimeEnergy(model), schedule=self.SCHEDULE, seed=2
        ).search_from(initial)
        slow = SimulatedAnnealingPlacer(
            full_energy_callable(model), schedule=self.SCHEDULE, seed=2
        ).search_from(initial)
        assert fast.energy == slow.energy
        assert assignment_of(fast.placement) == assignment_of(slow.placement)
        assert fast.energy_trajectory == slow.energy_trajectory
        assert fast.accepted_moves == slow.accepted_moves
        assert fast.evaluations == slow.evaluations

    def test_search_bit_identical_to_full(self):
        model = make_model()

        def factory(seed):
            return Placement.random(SPEC, instances(), seed=seed)

        fast = SimulatedAnnealingPlacer(
            WeightedTimeEnergy(model), schedule=self.SCHEDULE, seed=6
        ).search(factory)
        slow = SimulatedAnnealingPlacer(
            full_energy_callable(model), schedule=self.SCHEDULE, seed=6
        ).search(factory)
        assert fast.energy == slow.energy
        assert assignment_of(fast.placement) == assignment_of(slow.placement)


class _Counting:
    """Counts calls of one ``Placement`` method through ``monkeypatch``."""

    def __init__(self, monkeypatch, name):
        self.calls = 0
        original = getattr(Placement, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(Placement, name, counted)


def _new_bests(trajectory):
    """How often a stride-1 trajectory sets a new minimum."""
    best, count = trajectory[0], 0
    for energy in trajectory[1:]:
        if energy < best:
            best, count = energy, count + 1
    return count


class TestSearchStateBuildsNoPlacementPerProposal:
    SCHEDULE = AnnealingSchedule(iterations=300, restarts=1, trajectory_stride=1)

    @pytest.mark.parametrize("kind", ["weighted", "feasibility", "throughput"])
    def test_prediction_energies_never_swap_placements(self, kind, monkeypatch):
        model = make_model()
        constraints = [QoSConstraint("sensitive#2", 1.25)]
        energy = {
            "weighted": lambda: WeightedTimeEnergy(model),
            "feasibility": lambda: FeasibilityEnergy(model, constraints),
            "throughput": lambda: ConstrainedThroughputEnergy(model, constraints),
        }[kind]()
        swaps = _Counting(monkeypatch, "swap_units")
        builds = _Counting(monkeypatch, "_reassigned")
        result = SimulatedAnnealingPlacer(
            energy, schedule=self.SCHEDULE, seed=4
        ).search_from(Placement.random(SPEC, instances(), seed=8))
        assert result.evaluations > 200
        assert swaps.calls == 0
        # One placement per new best, and no other.
        assert builds.calls == _new_bests(result.energy_trajectory) > 0

    def test_a_plain_callable_swaps_a_placement_per_proposal(self, monkeypatch):
        swaps = _Counting(monkeypatch, "swap_units")
        result = SimulatedAnnealingPlacer(
            full_energy_callable(make_model()), schedule=self.SCHEDULE, seed=4
        ).search_from(Placement.random(SPEC, instances(), seed=8))
        assert swaps.calls == result.evaluations - 1 > 200


class TestTrajectoryStride:
    def test_validation(self):
        with pytest.raises(PlacementError):
            AnnealingSchedule(trajectory_stride=0)

    def test_explicit_stride(self):
        schedule = AnnealingSchedule(iterations=100, trajectory_stride=10)
        assert schedule.effective_stride() == 10

    def test_auto_stride_caps_points(self):
        schedule = AnnealingSchedule(iterations=5120)
        assert schedule.effective_stride() == 5120 // MAX_TRAJECTORY_POINTS

    def test_short_schedules_record_every_point(self):
        assert AnnealingSchedule(iterations=100).effective_stride() == 1

    def test_subsampled_trajectory_is_bounded(self):
        model = make_model()
        schedule = AnnealingSchedule(
            iterations=400, restarts=1, trajectory_stride=50
        )
        result = SimulatedAnnealingPlacer(
            WeightedTimeEnergy(model), schedule=schedule, seed=1
        ).search_from(Placement.random(SPEC, instances(), seed=1))
        # initial + one point per stride + the final state.
        assert len(result.energy_trajectory) <= 2 + 400 // 50
        assert result.energy_trajectory[-1] >= result.energy


class TestQoSEnergies:
    def _old_formula(self, model, constraints, placement, infeasible_base):
        predictions = predict_placement(model, placement)
        violation = sum(c.violation(predictions) for c in constraints)
        if violation <= 0:
            return weighted_total_time(predictions, placement)
        pressures = []
        for constraint in constraints:
            pressures.extend(
                model.pressure_vector(
                    placement.spanned_nodes(constraint.instance_key),
                    placement.co_runner_workloads(constraint.instance_key),
                )
            )
        tiebreak = sum(pressures) / len(pressures) if pressures else 0.0
        return infeasible_base + violation + PRESSURE_TIEBREAK * tiebreak

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_energies_match_reference_formula(self, seed):
        model = make_model()
        constraints = [QoSConstraint("sensitive#2", 1.25)]
        placement = Placement.random(SPEC, instances(), seed=seed)
        feasibility = FeasibilityEnergy(model, constraints)
        throughput = ConstrainedThroughputEnergy(model, constraints)
        assert feasibility(placement) == self._old_formula(
            model, constraints, placement, INFEASIBLE_ENERGY / 2
        )
        assert throughput(placement) == self._old_formula(
            model, constraints, placement, INFEASIBLE_ENERGY
        )
