"""Property tests: every prediction route equals the scalar reference.

Annealing predicts its memo misses one at a time through
``predict_under_corunners``; full placements, admission waves and
routing go through the vectorized kernel, which folds NETWORK factors
into compute predictions.  Whatever route a consumer takes, it must
produce the scalar path's floats bit for bit and raise the scalar
path's error.  Models come from the admission-wave strategies: every
heterogeneity policy, four-slot nodes whose co-runner order changes
the combined pressure, network profiles on only some targets, and
learned ``OnlineModel`` corrections.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import ClusterSpec
from repro.errors import ModelError
from repro.placement.assignment import InstanceSpec, Placement
from repro.placement.objectives import (
    WeightedTimeEnergy,
    predict_placement_scalar,
    weighted_total_time,
)

from tests.properties.test_admission_wave import (
    POLICIES,
    WORKLOADS,
    _candidates,
    _materialise,
    _model,
    waves,
)


def _placements(case, limit=3):
    """The base placement and the first few candidate placements."""
    _, base, _, job, controller = case
    placements = [base] if base is not None else []
    for nodes in _candidates(controller, base, job)[:limit]:
        placements.append(_materialise(controller, base, job, nodes))
    return placements


@given(case=waves())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_batches_equal_scalar_bit_for_bit(case):
    model = case[0]
    for placement in _placements(case):
        table = model.predict_placement_batch(placement)
        reference = predict_placement_scalar(model, placement)
        assert list(table.items()) == list(reference.items())


def _raised(call):
    with pytest.raises(ModelError) as error:
        call()
    return str(error.value)


@given(case=waves(), data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_unknown_workloads_raise_the_scalar_error(case, data):
    """Two unknown workloads in one placement: the batch table raises
    the error the scalar walk meets first, whether it meets a ghost as
    a target or as some earlier target's co-runner."""
    model = case[0]
    placements = _placements(case, limit=1)
    if not placements:
        return
    placement = placements[-1]
    instances = list(placement.instances)
    if len(instances) < 2:
        return
    first = data.draw(st.integers(0, len(instances) - 2))
    second = data.draw(st.integers(first + 1, len(instances) - 1))
    for index, ghost in ((first, "ghost-a"), (second, "ghost-b")):
        instances[index] = dataclasses.replace(
            instances[index], workload=ghost
        )
    # Assignment order reversed against instance order, so co-runner
    # order on a node differs from the order targets are visited in.
    haunted = Placement(
        placement.cluster_spec,
        instances,
        {
            spec.instance_key: placement.nodes_of(spec.instance_key)
            for spec in reversed(instances)
        },
        unit_slots_per_node=placement.unit_slots_per_node,
    )
    expected = _raised(lambda: predict_placement_scalar(model, haunted))
    assert "ghost-" in expected
    assert _raised(lambda: model.predict_placement_batch(haunted)) == expected


@st.composite
def large_placements(draw):
    """A model and a placement of 32 to 48 instances."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    model = _model(
        rng,
        draw(st.permutations(POLICIES)),
        network=draw(st.booleans()),
        online=draw(st.booleans()),
    )
    slots = draw(st.sampled_from([2, 4]))
    units = [
        rng.choice([1, 1, 2, 3])
        for _ in range(draw(st.integers(32, 48)))
    ]
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
        instances.append(
            InstanceSpec(
                key, rng.choice(WORKLOADS), len(nodes),
                weight=rng.choice([0.5, 1.0, 2.0]),
            )
        )
        assignment[key] = tuple(nodes)
    # Assignment order shuffled against instance order, as in the waves.
    keys = list(assignment)
    rng.shuffle(keys)
    placement = Placement(
        spec, instances, {key: assignment[key] for key in keys},
        unit_slots_per_node=slots,
    )
    return model, placement


@given(case=large_placements())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_full_state_of_large_placements_equals_scalar(case):
    model, placement = case
    assert len(placement.instances) >= 32
    reference = predict_placement_scalar(model, placement)
    energy = WeightedTimeEnergy(model)
    # Cold memo, then warm: both must give the scalar table.
    for _ in range(2):
        state = energy.full_state(placement)
        assert list(state.predictions.items()) == list(reference.items())
        assert state.energy == weighted_total_time(reference, placement)
