"""Property test: swap evaluation's residents index equals a full scan.

``PredictionEnergy.swap_state`` carries the placement's per-node
residents across unit swaps and rebuilds only the two touched nodes.
Over random placements (two- and four-slot nodes, assignment order
shuffled against instance order) and chains of swaps, some branching
from an older state the way a rejected proposal does, every swapped
state must equal a from-scratch ``full_state`` bit for bit, and every
re-predicted instance must see exactly ``co_runner_workloads``' lists,
in order.  The memo keys on co-runner names per spanned node, not node
ids, so a cold memo predicts each changed name layout exactly once.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import ClusterSpec
from repro.errors import PlacementError
from repro.placement.assignment import InstanceSpec, Placement
from repro.placement.objectives import (
    EnergyState,
    WeightedTimeEnergy,
    predict_placement_scalar,
)

from tests.properties.test_admission_wave import POLICIES, WORKLOADS, _model


class _Recording:
    """Model proxy logging what each memo miss is predicted from."""

    def __init__(self, model):
        self.model = model
        self.calls = []

    def predict_under_corunners(self, workload, nodes, co_runners):
        self.calls.append((
            workload,
            list(nodes),
            {node: list(names) for node, names in co_runners.items()},
        ))
        return self.model.predict_under_corunners(workload, nodes, co_runners)


def _names(workload, nodes, co_runners):
    """The memo's view of a prediction: co-runner names per node."""
    return workload, tuple(tuple(co_runners[node]) for node in nodes)


@st.composite
def chains(draw):
    """A model, a placement and a seed for its swap chain."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    model = _model(
        rng,
        draw(st.permutations(POLICIES)),
        network=draw(st.booleans()),
        online=draw(st.booleans()),
    )
    slots = draw(st.sampled_from([2, 4]))
    units = [rng.choice([1, 2, 3]) for _ in range(draw(st.integers(3, 12)))]
    num_nodes = max(3, math.ceil(sum(units) / slots / rng.choice([0.7, 1.0])))
    spec = ClusterSpec(num_nodes=num_nodes, max_workloads_per_node=slots)
    load = {node: 0 for node in range(num_nodes)}
    instances, assignment = [], {}
    for i, wanted in enumerate(units):
        open_nodes = [node for node, used in load.items() if used < slots]
        nodes = rng.sample(open_nodes, min(wanted, len(open_nodes)))
        for node in nodes:
            load[node] += 1
        key = f"i{i}"
        instances.append(InstanceSpec(key, rng.choice(WORKLOADS), len(nodes)))
        assignment[key] = tuple(nodes)
    keys = list(assignment)
    rng.shuffle(keys)
    placement = Placement(
        spec, instances, {key: assignment[key] for key in keys},
        unit_slots_per_node=slots,
    )
    return model, placement, rng.randrange(2**32)


def _swap(placement, rng):
    """A random valid unit swap and its two nodes, or ``None``."""
    for _ in range(20):
        key_a, key_b = rng.sample(
            [spec.instance_key for spec in placement.instances], 2
        )
        unit_a = rng.randrange(placement.instance(key_a).num_units)
        unit_b = rng.randrange(placement.instance(key_b).num_units)
        touched = (
            placement.nodes_of(key_a)[unit_a],
            placement.nodes_of(key_b)[unit_b],
        )
        if touched[0] == touched[1]:
            continue
        try:
            return placement.swap_units(key_a, unit_a, key_b, unit_b), touched
        except PlacementError:
            continue
    return None


def _assert_state_is_full(model, state, placement):
    full = WeightedTimeEnergy(model).full_state(placement)
    assert list(state.predictions.items()) == list(full.predictions.items())
    assert state.energy == full.energy
    assert {
        node: [(key, workload) for _, key, workload in units]
        for node, units in state.residents.items()
    } == placement.node_residents()
    return full


@given(case=chains())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_swap_chains_equal_full_evaluation(case):
    model, placement, seed = case
    rng = random.Random(seed)
    energy = WeightedTimeEnergy(model)
    states = [energy.full_state(placement)]
    for _ in range(12):
        # Mostly extend the latest state; sometimes branch from an
        # older one, as annealing does after rejecting a proposal.
        parent = states[-1] if rng.random() < 0.6 else rng.choice(states)
        proposal = _swap(parent.placement, rng)
        if proposal is None:
            continue
        swapped, touched = proposal
        state = energy.swap_state(parent, swapped, touched)
        _assert_state_is_full(model, state, swapped)
        states.append(state)

        # A cold memo predicts each changed instance's name layout
        # once, from that instance's real nodes and co_runner_workloads'
        # lists, in order.
        recording = _Recording(model)
        WeightedTimeEnergy(recording).swap_state(parent, swapped, touched)
        changed = [
            (
                swapped.instance(key).workload,
                swapped.spanned_nodes(key),
                swapped.co_runner_workloads(key),
            )
            for key in {
                key for node in touched for _, key, _ in state.residents[node]
            }
        ]
        asked = [_names(*call) for call in recording.calls]
        assert len(asked) == len(set(asked))
        assert set(asked) == {_names(*args) for args in changed}
        for call in recording.calls:
            assert call in changed


@given(case=chains())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_paths_without_a_carried_index(case):
    model, placement, seed = case
    rng = random.Random(seed)
    proposal = _swap(placement, rng)
    if proposal is None:
        return
    swapped, touched = proposal
    energy = WeightedTimeEnergy(model)
    start = energy.full_state(placement)
    bare = EnergyState(start.placement, start.predictions, start.energy)
    state = energy.swap_state(bare, swapped, touched)
    full = _assert_state_is_full(model, state, swapped)
    reference = predict_placement_scalar(model, swapped)
    key = rng.choice(list(reference))
    assert WeightedTimeEnergy(model)._predict(swapped, key) == reference[key]
    assert WeightedTimeEnergy(model)(swapped) == full.energy
