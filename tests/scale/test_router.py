"""Headroom-ordering invariants of the :class:`HeadroomRouter`."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterSpec
from repro.errors import ServiceError
from repro.obs.recorder import recording
from repro.scale import HeadroomRouter, build_sharded_service, free_slot_count
from repro.service.jobs import Job
from repro.service.stream import FixedStream
from tests.scale._helpers import (
    CellRunnerFactory,
    service_config,
    sharded_service,
)


def _job(job_id: str, *, units: int = 2, qos: float = None) -> Job:
    return Job(
        job_id=job_id,
        workload="appA",
        num_units=units,
        duration_epochs=4,
        arrival_epoch=0,
        qos_target=qos,
    )


def _load(cell, job: Job) -> None:
    """Place ``job`` in the cell directly (no epoch machinery)."""
    service = cell.service
    decision = service.admission.try_admit(
        service.placement, service.tenants, job
    )
    assert decision.admitted, f"could not load {job.job_id}: {decision.reason}"
    service.admit_transfer(job, ends_at=99, decision=decision)


@pytest.fixture
def cells(synthetic_model):
    """Three 4-node cells, all empty."""
    return sharded_service(synthetic_model, 3, num_nodes=12).cells


def test_empty_cell_outscores_a_loaded_one(synthetic_model, cells):
    router = HeadroomRouter()
    for i in range(3):
        _load(cells[0], _job(f"crowd-{i}", units=2))
    probe = _job("probe", qos=1.25)
    empty = router.score(cells[1], probe)
    loaded = router.score(cells[0], probe)
    assert empty is not None and loaded is not None
    assert empty.headroom > loaded.headroom
    assert router.route_many(cells, [probe])[probe.job_id] in (1, 2)


def test_ties_break_toward_the_lowest_cell_id(synthetic_model, cells):
    router = HeadroomRouter()
    # All three cells identical and empty: identical headroom.
    probe = _job("probe")
    assert router.route_many(cells, [probe])[probe.job_id] == 0


def test_score_is_none_without_capacity(synthetic_model, cells):
    router = HeadroomRouter()
    assert router.score(cells[0], _job("probe", units=9)) is None


def test_full_cells_fall_back_to_most_free_slots(synthetic_model, cells):
    router = HeadroomRouter()
    # Fill cells 0 and 2 completely (4 nodes x 2 slots = 8 units each),
    # and leave cell 1 exactly one free slot: a 2-unit arrival needs
    # two distinct free nodes, so no cell can be scored and the router
    # falls back to the cell with the most free slots.
    for cell_id in (0, 2):
        for i in range(4):
            _load(cells[cell_id], _job(f"fill-{cell_id}-{i}", units=2))
    _load(cells[1], _job("fill-1-a", units=2))
    _load(cells[1], _job("fill-1-b", units=2))
    _load(cells[1], _job("fill-1-c", units=3))
    probe = _job("probe", units=2)
    assert all(router.score(cell, probe) is None for cell in cells)
    assert free_slot_count(cells[1]) == 1
    assert router.route_many(cells, [probe])[probe.job_id] == 1


def test_route_many_spreads_a_wave_across_equal_cells(synthetic_model, cells):
    router = HeadroomRouter()
    wave = [_job(f"wave-{i}") for i in range(6)]
    room = {cell.cell_id: 2 for cell in cells}
    assignments = router.route_many(cells, wave, queue_room=room)
    taken = {cid: 0 for cid in (0, 1, 2)}
    for target in assignments.values():
        taken[target] += 1
    assert taken == {0: 2, 1: 2, 2: 2}


def test_route_many_overflows_only_when_every_cell_is_at_cap(
    synthetic_model, cells
):
    router = HeadroomRouter()
    wave = [_job(f"wave-{i}") for i in range(7)]
    room = {cell.cell_id: 2 for cell in cells}
    assignments = router.route_many(cells, wave, queue_room=room)
    taken = {cid: 0 for cid in (0, 1, 2)}
    for target in assignments.values():
        taken[target] += 1
    # Six jobs fill every cap; the seventh lands somewhere anyway (the
    # router never drops work) — exactly one cell goes one over.
    assert sorted(taken.values()) == [2, 2, 3]


def test_an_unprofiled_arrival_is_rejected_and_the_day_goes_on(
    synthetic_model,
):
    # No cell profiled appZ: the router must not score it (the model
    # would raise) but hand it to a cell, which rejects it on arrival.
    service = build_sharded_service(
        synthetic_model,
        ClusterSpec(num_nodes=8, cores_per_node=16),
        2,
        FixedStream((Job("j0", "appZ", num_units=2, arrival_epoch=0),)),
        seed=11,
        config=service_config(),
        runner_factory=CellRunnerFactory(),
    )
    with recording() as recorder:
        service.run(2)
    events = [
        dict(event.payload, kind=event.kind)
        for event in service.log
        if dict(event.payload).get("job") == "j0"
    ]
    assert [(e["kind"], e.get("reason")) for e in events] == [
        ("arrival", None),
        ("reject", "unprofiled"),
    ]
    assert all("cell" in e for e in events)
    assert recorder.counters["scale.router.unprofiled"] == 1
    assert "scale.router.no_capacity" not in recorder.counters


def test_router_rejects_nonpositive_probe_budget():
    with pytest.raises(ServiceError):
        HeadroomRouter(probe_candidates=0)


# ----------------------------------------------------------------------
# Identity with the materialised reference
# ----------------------------------------------------------------------
#
# The router scores a cell through its admission controller's candidate
# enumeration and one factored wave.  On generated cells that must give
# exactly what building every probed candidate placement and predicting
# it one instance at a time gives.

import random
from itertools import combinations, islice

from repro.errors import PlacementError
from repro.placement.objectives import predict_placement_scalar
from repro.scale import CellScore
from repro.service.admission import placement_with_job


def _reference_score(router, cell, job):
    """Materialise each probed candidate and predict it scalar-wise."""
    service = cell.service
    placement = service.placement
    admission = service.admission
    free = admission.free_nodes(placement)
    if len(free) < job.num_units:
        return None
    candidates = []
    for nodes in islice(
        combinations(free, job.num_units), router.probe_candidates
    ):
        try:
            candidates.append(
                placement_with_job(
                    placement,
                    admission.cluster_spec,
                    job,
                    nodes,
                    unit_slots_per_node=admission.unit_slots_per_node,
                )
            )
        except PlacementError:
            continue
    if not candidates:
        return None
    constraints = router._constraints(service.tenants, job)
    best = None
    for candidate in candidates:
        predictions = predict_placement_scalar(service.model, candidate)
        margin = min(
            c.max_normalized_time - predictions[c.instance_key]
            for c in constraints
        )
        if best is None or margin > best.headroom:
            best = CellScore(
                cell_id=cell.cell_id,
                headroom=margin,
                predicted_time=predictions[job.job_id],
                free_slots=free_slot_count(cell),
            )
    return best


@pytest.mark.parametrize("seed", range(4))
def test_score_equals_materialised_reference(synthetic_model, seed):
    rng = random.Random(seed)
    cells = sharded_service(synthetic_model, 3, num_nodes=24).cells
    for i in range(rng.randint(3, 12)):
        cell = cells[rng.randrange(len(cells))]
        job = Job(
            job_id=f"load-{i}",
            workload=rng.choice(["appA", "appB"]),
            num_units=rng.randint(1, 3),
            duration_epochs=4,
            qos_target=rng.choice([None, 1.05, 1.4, 2.0, 3.0]),
        )
        service = cell.service
        decision = service.admission.try_admit(
            service.placement, service.tenants, job
        )
        if decision.admitted:
            service.admit_transfer(job, ends_at=99, decision=decision)
    probes = [
        Job(
            job_id=f"probe-{units}-{qos}",
            workload=workload,
            num_units=units,
            qos_target=qos,
        )
        for units in (1, 2, 4)
        for qos in (None, 1.5)
        for workload in ("appA", "appB")
    ]
    for probe_candidates in (4, 16):
        router = HeadroomRouter(probe_candidates=probe_candidates)
        for cell in cells:
            for probe in probes:
                expected = _reference_score(router, cell, probe)
                assert router.score(cell, probe) == expected
