"""Property tests for factored admission waves.

An admission wave scores one base placement extended by one arriving
job on many candidate node sets.  The batch path never builds those
candidate placements: it predicts each base tenant once and then only
the rows the job changes.  Whatever the base looks like, every wave
row must equal the scalar reference on the materialised candidate,
and a whole admission decision must equal the scalar-only decision
field by field.

Four-slot nodes matter here: a resident then sees up to three
co-runners, and the float sum that combines their pressures depends on
their order, so these bases also shuffle the assignment order against
the instance order.
"""

import random
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import ClusterSpec
from repro.cluster.contention import ContentionDomain, combine_pressures
from repro.core.curves import PropagationMatrix
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.core.online import OnlineModel
from repro.errors import ModelError, PlacementError
from repro.faults.degradation import conservative_prediction
from repro.obs.recorder import recording
from repro.placement.assignment import Placement
from repro.placement.objectives import predict_placement_scalar
from repro.service.admission import AdmissionController, placement_with_job
from repro.service.jobs import Job

from tests.service.test_admission import _ScalarOnlyModel

POLICIES = ("N MAX", "N+1 MAX", "ALL MAX", "INTERPOLATE")
WORKLOADS = ("w0", "w1", "w2", "w3", "w4", "w5")
#: Bubble scores on which half of all ordered co-runner triples combine
#: to a different float in another summation order, so a wave that sums
#: in the wrong order shows.  All stay low enough for three-source
#: combinations to land inside the matrices' pressure range.
SCORES = (0.5, 0.6, 1.2, 1.6, 2.6, 3.2)


def _matrix(rng):
    counts = list(range(rng.randint(3, 5)))
    pressures = sorted(rng.uniform(0.5, 9.0) for _ in range(3))
    # Steep surfaces let a one-ulp pressure difference reach the
    # prediction instead of vanishing in the interpolation's rounding.
    steepness = rng.choice([0.1, 1.0, 10.0])
    values = np.array(
        [
            [1.0 + rng.random() * p * (c + 1) * steepness for c in counts]
            for p in pressures
        ]
    )
    return PropagationMatrix(pressures, counts, values)


def _model(rng, policies, network, online):
    """Profiles over every policy; optional network domain and learning."""
    profiles = {}
    scores = rng.sample(SCORES, len(SCORES))
    for i, name in enumerate(WORKLOADS):
        policy = policies[i % len(policies)]
        # With the network domain on, some workloads stay flat so the
        # wave also mixes network-predictable and compute-only rows.
        networked = network and rng.random() < 0.75
        profiles[name] = InterferenceProfile(
            workload=name,
            matrix=_matrix(rng),
            policy_name=policy,
            bubble_score=scores[i],
            network_matrix=_matrix(rng) if networked else None,
            network_score=rng.uniform(0.5, 6.0) if networked else 0.0,
        )
    model = InterferenceModel(profiles)
    if not online:
        return model
    learning = OnlineModel(model)
    for name in WORKLOADS:
        for _ in range(rng.randint(0, 3)):
            learning.observe(
                name, rng.uniform(1.05, 2.5), rng.uniform(1.0, 3.0)
            )
    return learning


@st.composite
def waves(draw):
    """A model, a base placement with tenants, a job and a controller."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    # Four slots and no tighter workload limit is the order-sensitive
    # shape, so it is drawn most often.
    slots, limit = draw(
        st.sampled_from([(4, 4), (4, 4), (4, 3), (4, 2), (2, 2), (2, 1)])
    )
    spec = ClusterSpec(
        num_nodes=draw(st.integers(2, 6)), max_workloads_per_node=limit
    )
    model = _model(
        rng,
        draw(st.permutations(POLICIES)),
        network=draw(st.booleans()),
        online=draw(st.booleans()),
    )
    tenants, assignment = [], {}
    load = {node: 0 for node in range(spec.num_nodes)}
    room = min(slots, spec.max_workloads_per_node)
    # Fill up to a drawn number of units: dense bases put three or four
    # residents on a node, where summation order matters.
    target = round(room * spec.num_nodes * rng.choice([0.3, 0.7, 0.9, 1.0]))
    for i in range(4 * spec.num_nodes):
        units = rng.randint(1, 3)
        open_nodes = [node for node, used in load.items() if used < room]
        if sum(load.values()) >= target or len(open_nodes) < units:
            continue
        nodes = rng.sample(open_nodes, units)
        for node in nodes:
            load[node] += 1
        tenants.append(
            Job(
                job_id=f"t{i}",
                workload=rng.choice(WORKLOADS),
                num_units=units,
                qos_target=rng.choice([None, None, 1.6, 2.5, 4.0]),
                weight=rng.choice([0.5, 1.0, 2.0]),
            )
        )
        assignment[f"t{i}"] = tuple(nodes)
    # The assignment's insertion order is shuffled against the
    # instance order: a wave must follow the instance order.
    keys = list(assignment)
    rng.shuffle(keys)
    base = None
    if tenants:
        base = Placement(
            spec,
            [tenant.instance_spec() for tenant in tenants],
            {key: assignment[key] for key in keys},
            unit_slots_per_node=slots,
        )
    job = Job(
        job_id="arriving",
        workload=rng.choice(WORKLOADS),
        num_units=draw(st.integers(1, 3)),
        qos_target=rng.choice([None, 1.6, 2.5, 4.0]),
        weight=rng.choice([0.5, 1.0, 2.0]),
    )
    degraded = set(draw(st.sets(st.sampled_from(WORKLOADS))))
    controller = AdmissionController(
        model,
        spec,
        unit_slots_per_node=slots,
        max_candidates=draw(st.sampled_from([4096, 10, 3])),
        degraded_workloads=degraded,
    )
    return model, base, tenants, job, controller


def _materialise(controller, base, job, nodes):
    """The candidate placement the wave stands for."""
    return placement_with_job(
        base, controller.cluster_spec, job, nodes,
        unit_slots_per_node=controller.unit_slots_per_node,
    )


def _reference_node_sets(controller, base, job):
    """Enumerate by materialising: keep what ``placement_with_job`` accepts."""
    free = controller.free_nodes(base)
    kept = []
    for count, nodes in enumerate(combinations(free, job.num_units)):
        if count == controller.max_candidates:
            break
        try:
            _materialise(controller, base, job, nodes)
        except PlacementError:
            continue
        kept.append(nodes)
    return kept


def _reference_predictions(model, candidate, degraded):
    """Scalar predictions with the conservative ALL-max override."""
    predictions = predict_placement_scalar(model, candidate)
    for spec in candidate.instances:
        if spec.workload not in degraded:
            continue
        key = spec.instance_key
        conservative = conservative_prediction(
            model,
            spec.workload,
            candidate.spanned_nodes(key),
            candidate.co_runner_workloads(key),
        )
        if conservative > predictions[key]:
            predictions[key] = conservative
    return predictions


def _candidates(controller, base, job):
    free = controller.free_nodes(base)
    if len(free) < job.num_units:
        return []
    return controller.candidate_node_sets(
        base, job, free, controller.max_candidates
    )


def _vector_table(wave):
    """Each candidate's per-instance pressure vectors, read off a wave."""
    rows = wave.scatter(np.arange(len(wave.vectors), dtype=float))
    return [[wave.vectors[int(row)] for row in cells] for cells in rows]


@given(case=waves())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_wave_vectors_equal_scalar_pressure_vectors(case):
    model, base, _, job, controller = case
    node_sets = _candidates(controller, base, job)
    static = getattr(model, "base", model)
    domains = [(static.prediction_kernel(), static.pressure_vector)]
    if static.has_network:
        domains.append((
            static.network_kernel(),
            partial(static.pressure_vector, domain=ContentionDomain.NETWORK),
        ))
    for kernel, pressure_vector in domains:
        wave = kernel.admission_wave(base, job.instance_spec(), node_sets)
        table = _vector_table(wave)
        for vectors, nodes in zip(table, node_sets):
            candidate = _materialise(controller, base, job, nodes)
            assert vectors == [
                pressure_vector(
                    candidate.spanned_nodes(spec.instance_key),
                    candidate.co_runner_workloads(spec.instance_key),
                )
                for spec in candidate.instances
            ]


@given(case=waves())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_wave_rows_equal_scalar_on_each_candidate(case):
    model, base, _, job, controller = case
    node_sets = _candidates(controller, base, job)
    if not node_sets:
        return
    assert node_sets == _reference_node_sets(controller, base, job)
    degraded = controller.degraded_workloads
    wave = model.predict_placements_batch(
        base, job.instance_spec(), node_sets, degraded=degraded
    )
    instances = (*base.instances, job.instance_spec()) if base else (
        job.instance_spec(),
    )
    assert wave.shape == (len(node_sets), len(instances))
    for row, nodes in zip(wave.tolist(), node_sets):
        candidate = _materialise(controller, base, job, nodes)
        reference = _reference_predictions(model, candidate, degraded)
        assert row == [reference[spec.instance_key] for spec in instances]


@given(case=waves())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_try_admit_equals_scalar_only_decision(case):
    model, base, tenants, job, controller = case
    scalar = AdmissionController(
        _ScalarOnlyModel(model),
        controller.cluster_spec,
        unit_slots_per_node=controller.unit_slots_per_node,
        max_candidates=controller.max_candidates,
        degraded_workloads=controller.degraded_workloads,
    )
    outcomes = []
    for admission in (controller, scalar):
        with recording() as rec:
            decision = admission.try_admit(base, tenants, job)
        outcomes.append((decision, rec.counter("fault.degraded_prediction")))
    (batch, batch_raised), (reference, reference_raised) = outcomes
    assert batch.admitted == reference.admitted
    assert batch.reason == reference.reason
    assert batch.candidates_evaluated == reference.candidates_evaluated
    assert batch.predictions == reference.predictions
    assert batch_raised == reference_raised
    if reference.placement is None:
        assert batch.placement is None
    else:
        assert batch.placement == reference.placement
        assert batch.placement.instances == reference.placement.instances


def test_four_slot_wave_follows_instance_order():
    """A pinned base on which both orders of summation show.

    Node 0 is full: each resident sees three co-runners, summed in
    instance order, while the assignment lists them the other way
    round.  Node 1 has one free slot: there the job's score must be
    summed last.  The scores are chosen so that both mistakes change
    the combined pressure.
    """
    scores = {"w0": 0.5, "w1": 0.6, "w2": 1.1, "w3": 1.6, "w4": 3.1}
    policies = {
        "w0": "N MAX", "w1": "N+1 MAX", "w2": "ALL MAX",
        "w3": "INTERPOLATE", "w4": "N MAX",
    }
    rng = random.Random(7)
    model = InterferenceModel(
        {
            name: InterferenceProfile(
                workload=name,
                matrix=_matrix(rng),
                policy_name=policies[name],
                bubble_score=score,
            )
            for name, score in scores.items()
        }
    )
    spec = ClusterSpec(num_nodes=3, max_workloads_per_node=4)
    tenants = [
        Job(job_id=f"t{i}", workload=f"w{i}", num_units=units)
        for i, units in enumerate((2, 2, 2, 1))
    ]
    nodes = {"t0": (0, 1), "t1": (0, 1), "t2": (0, 1), "t3": (0,)}
    base = Placement(
        spec,
        [tenant.instance_spec() for tenant in tenants],
        {key: nodes[key] for key in ("t3", "t2", "t1", "t0")},
        unit_slots_per_node=4,
    )
    job = Job(job_id="arriving", workload="w4", num_units=1)

    def combined(names):
        return combine_pressures(
            [scores[name] for name in names], collision_surcharge=0.0
        )

    # The premise: either mistake would change what a tenant sees.
    assert combined(["w1", "w2", "w3"]) != combined(["w3", "w2", "w1"])
    assert combined(["w0", "w2", "w4"]) != combined(["w4", "w0", "w2"])

    controller = AdmissionController(model, spec, unit_slots_per_node=4)
    node_sets = _candidates(controller, base, job)
    assert node_sets == [(1,), (2,)]
    wave = model.predict_placements_batch(base, job.instance_spec(), node_sets)
    table = _vector_table(
        model.prediction_kernel().admission_wave(
            base, job.instance_spec(), node_sets
        )
    )
    for row, vectors, nodes in zip(wave.tolist(), table, node_sets):
        candidate = _materialise(controller, base, job, nodes)
        reference = predict_placement_scalar(model, candidate)
        assert row == [
            reference[spec.instance_key] for spec in candidate.instances
        ]
        assert vectors == [
            model.pressure_vector(
                candidate.spanned_nodes(spec.instance_key),
                candidate.co_runner_workloads(spec.instance_key),
            )
            for spec in candidate.instances
        ]


def test_unknown_workloads_raise_the_scalar_error():
    """The wave names the unknown workload the scalar walk hits first."""
    model = _model(random.Random(3), POLICIES, network=False, online=False)
    spec = ClusterSpec(num_nodes=4)
    tenants = [
        Job("t0", "w0", num_units=2),
        Job("t1", "ghost-b", num_units=1),
        Job("t2", "ghost-a", num_units=1),
    ]
    base = Placement(
        spec,
        [tenant.instance_spec() for tenant in tenants],
        {"t2": (2,), "t1": (0,), "t0": (0, 1)},
    )
    cases = [
        (None, [], Job("arriving", "ghost-c", num_units=2)),
        (base, tenants, Job("arriving", "w1", num_units=1)),
    ]
    for placement, residents, job in cases:
        messages = []
        for wrapped in (model, _ScalarOnlyModel(model)):
            controller = AdmissionController(wrapped, spec)
            with pytest.raises(ModelError) as error:
                controller.try_admit(placement, residents, job)
            messages.append(str(error.value))
        assert messages[0] == messages[1]
