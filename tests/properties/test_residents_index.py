"""Property test: a search state's carried indexes equal a full scan.

``PredictionEnergy.full_state`` starts a mutable ``SearchState`` that
carries the assignment, each node's residents and co-runner names and
the prediction table across unit swaps, rebuilding only the two touched
nodes.  Over random placements (two- and four-slot nodes, assignment
order shuffled against instance order) and chains of swaps, each kept
or undone at random (an undo right after a memo miss included), the
state after every step must equal a from-scratch ``full_state`` of the
same ``Placement`` bit for bit, and every prediction the model is asked
for must come from a changed instance's real nodes and exactly
``co_runner_workloads``' lists, in order.  The memo keys on co-runner
names per spanned node, not node ids, so a cold memo asks the model at
most once per name layout.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import ClusterSpec
from repro.errors import PlacementError
from repro.placement.assignment import InstanceSpec, Placement
from repro.placement.objectives import (
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
    """A random valid unit swap, its placement and its two nodes."""
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
            swapped = placement.swap_units(key_a, unit_a, key_b, unit_b)
        except PlacementError:
            continue
        return (key_a, unit_a, key_b, unit_b), swapped, touched
    return None


def _assert_state_is_full(model, state, placement):
    full = WeightedTimeEnergy(model).full_state(placement)
    assert list(state.predictions.items()) == list(full.predictions.items())
    assert state.energy == full.energy
    assert list(state.assignment.items()) == list(full.assignment.items())
    assert state.residents == full.residents
    assert state.names == full.names
    assert {
        node: [(key, workload) for _, key, workload in units]
        for node, units in state.residents.items()
    } == placement.node_residents()
    built = state.placement()
    assert built == placement
    assert list(built._assignment) == list(placement._assignment)


@given(case=chains())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_swap_chains_equal_full_evaluation(case):
    model, placement, seed = case
    rng = random.Random(seed)
    recording = _Recording(model)
    energy = WeightedTimeEnergy(recording)
    state = energy.full_state(placement)
    _assert_state_is_full(model, state, placement)
    undid_a_miss = False
    for _ in range(16):
        proposal = _swap(placement, rng)
        if proposal is None:
            continue
        swap, swapped, touched = proposal
        asked = len(recording.calls)
        assert state.swap(*swap) == state.energy
        _assert_state_is_full(model, state, swapped)

        # Every miss predicts a changed instance from its real nodes
        # and co_runner_workloads' lists, in order; every changed
        # instance's layout is memoized.
        changed = {
            key for node in touched for _, key, _ in state.residents[node]
        }
        views = [
            (
                swapped.instance(key).workload,
                swapped.spanned_nodes(key),
                swapped.co_runner_workloads(key),
            )
            for key in changed
        ]
        for call in recording.calls[asked:]:
            assert call in views
        for view in views:
            assert _names(*view) in energy._memo

        missed = len(recording.calls) > asked
        if (missed and not undid_a_miss) or rng.random() < 0.4:
            undid_a_miss = undid_a_miss or missed
            state.undo()
            _assert_state_is_full(model, state, placement)
        else:
            placement = swapped

    # A cold memo asks the model at most once per name layout.
    asked = [_names(*call) for call in recording.calls]
    assert len(asked) == len(set(asked))


@given(case=chains())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_a_fresh_state_equals_the_scalar_reference(case):
    model, placement, _ = case
    energy = WeightedTimeEnergy(model)
    state = energy.full_state(placement)
    assert state.predictions == predict_placement_scalar(model, placement)
    assert energy(placement) == state.energy
    for spec in placement.instances:
        key = spec.instance_key
        nodes, layout = state.co_runners(key)
        assert nodes == placement.spanned_nodes(key)
        assert dict(zip(nodes, map(list, layout))) == (
            placement.co_runner_workloads(key)
        )
