"""Placement-level bit-identity of the batch prediction path.

``predict_placement`` dispatches to the vectorized
:meth:`~repro.core.model.InterferenceModel.predict_placement_batch`
whenever the model offers it; these tests pin that route to the scalar
reference (:func:`predict_placement_scalar`) bit for bit, including
through a whole annealing search.
"""

import random

import numpy as np
import pytest

from repro.cluster.cluster import ClusterSpec
from repro.core.curves import PropagationMatrix
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.core.online import OnlineModel
from repro.placement.annealing import AnnealingSchedule, SimulatedAnnealingPlacer
from repro.placement.assignment import InstanceSpec, Placement
from repro.placement.objectives import (
    WeightedTimeEnergy,
    predict_placement,
    predict_placement_scalar,
)

POLICIES = ("N MAX", "N+1 MAX", "ALL MAX", "INTERPOLATE")


class ScalarOnly:
    """Model proxy hiding the batch interface.

    Forces every consumer down the scalar reference path, which is how
    the tests compare whole search trajectories batch-vs-scalar.
    """

    _HIDDEN = frozenset(
        {
            "predict_placement_batch",
            "predict_placements_batch",
            "prediction_kernel",
        }
    )

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        if name in ScalarOnly._HIDDEN:
            raise AttributeError(name)
        return getattr(self._model, name)


def random_model(rng, num_workloads=4):
    profiles = {}
    for i in range(num_workloads):
        name = f"w{i}"
        counts = list(range(rng.randint(3, 6)))
        pressures = sorted(
            rng.uniform(0.5, 10.0) for _ in range(rng.randint(2, 4))
        )
        values = np.array(
            [
                [1.0 + rng.random() * p * (c + 1) / 8.0 for c in counts]
                for p in pressures
            ]
        )
        profiles[name] = InterferenceProfile(
            workload=name,
            matrix=PropagationMatrix(pressures, counts, values),
            policy_name=POLICIES[i % len(POLICIES)],
            bubble_score=rng.uniform(0.0, 9.0),
        )
    return InterferenceModel(profiles)


def random_placement(rng, model, num_instances, num_nodes):
    kinds = sorted(model.workloads)
    spec = ClusterSpec(num_nodes=num_nodes)
    instances, assignment = [], {}
    free = {node: 2 for node in range(num_nodes)}
    for i in range(num_instances):
        units = rng.randint(1, 4)
        open_nodes = [node for node, slots in free.items() if slots > 0]
        if len(open_nodes) < units:
            break
        nodes = rng.sample(open_nodes, units)
        for node in nodes:
            free[node] -= 1
        key = f"job-{i}"
        instances.append(InstanceSpec(key, rng.choice(kinds), units))
        assignment[key] = tuple(nodes)
    return Placement(spec, instances, assignment, unit_slots_per_node=2)


class TestPlacementIdentity:
    @pytest.mark.parametrize("seed", range(8))
    def test_full_placement_matches_scalar_bitwise(self, seed):
        rng = random.Random(seed)
        model = random_model(rng)
        placement = random_placement(
            rng, model, rng.randint(2, 20), rng.randint(8, 44)
        )
        assert predict_placement(model, placement) == (
            predict_placement_scalar(model, placement)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_online_model_matches_scalar_bitwise(self, seed):
        rng = random.Random(100 + seed)
        base = random_model(rng)
        online = OnlineModel(base)
        for _ in range(rng.randint(1, 5)):
            online.observe(
                rng.choice(sorted(base.workloads)),
                predicted=rng.uniform(1.0, 3.0),
                measured=rng.uniform(1.0, 3.0),
            )
        placement = random_placement(rng, base, 10, 24)
        assert predict_placement(online, placement) == (
            predict_placement_scalar(online, placement)
        )

    def test_table_preserves_instance_order(self):
        rng = random.Random(7)
        model = random_model(rng)
        placement = random_placement(rng, model, 8, 20)
        table = predict_placement(model, placement)
        assert list(table) == [
            spec.instance_key for spec in placement.instances
        ]


class TestAnnealingIdentity:
    @pytest.mark.parametrize("seed", range(3))
    def test_search_trajectory_identical(self, seed):
        rng = random.Random(40 + seed)
        model = random_model(rng)
        kinds = sorted(model.workloads)
        spec = ClusterSpec(num_nodes=16)
        instances = [
            InstanceSpec(f"{kinds[i % len(kinds)]}#{i}", kinds[i % len(kinds)], 3)
            for i in range(8)
        ]
        initial = Placement.random(spec, instances, seed=seed + 1)
        schedule = AnnealingSchedule(iterations=250, restarts=1)
        batch = SimulatedAnnealingPlacer(
            WeightedTimeEnergy(model), schedule=schedule, seed=seed
        ).search_from(initial)
        scalar = SimulatedAnnealingPlacer(
            WeightedTimeEnergy(ScalarOnly(model)), schedule=schedule, seed=seed
        ).search_from(initial)
        assert batch.energy == scalar.energy
        assert batch.energy_trajectory == scalar.energy_trajectory
        assert {
            s.instance_key: batch.placement.nodes_of(s.instance_key)
            for s in batch.placement.instances
        } == {
            s.instance_key: scalar.placement.nodes_of(s.instance_key)
            for s in scalar.placement.instances
        }


class TestMemoEviction:
    def test_eviction_drops_oldest_half_only(self):
        rng = random.Random(55)
        model = random_model(rng)
        energy = WeightedTimeEnergy(model)
        energy.MEMO_LIMIT = 8
        for i in range(8):
            energy._store(("key", i), float(i))
        assert len(energy._memo) == 8
        # The next store evicts the oldest half, keeps the newest.
        energy._store(("key", 8), 8.0)
        assert len(energy._memo) == 5
        assert set(energy._memo) == {("key", i) for i in range(4, 9)}

    def test_eviction_keeps_results_correct(self):
        rng = random.Random(56)
        model = random_model(rng)
        energy = WeightedTimeEnergy(model)
        energy.MEMO_LIMIT = 4  # force constant eviction
        placement = random_placement(rng, model, 6, 16)
        reference = predict_placement_scalar(model, placement)
        table = energy.full_state(placement).predictions
        assert table == reference
