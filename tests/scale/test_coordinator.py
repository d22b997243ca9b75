"""The global coordinator migrates only on margin collapse."""

from __future__ import annotations

import json

import pytest

from repro.errors import ServiceError
from repro.scale import CoordinatorConfig, GlobalCoordinator, HeadroomRouter
from repro.service.events import EventLog
from repro.service.jobs import Job
from tests.scale._helpers import sharded_service


def _job(job_id: str, *, workload: str = "appA", units: int = 2, qos=None):
    return Job(
        job_id=job_id,
        workload=workload,
        num_units=units,
        duration_epochs=4,
        arrival_epoch=0,
        qos_target=qos,
    )


def _load(cell, job: Job) -> None:
    service = cell.service
    decision = service.admission.try_admit(
        service.placement, service.tenants, job
    )
    assert decision.admitted, f"could not load {job.job_id}: {decision.reason}"
    service.admit_transfer(job, ends_at=99, decision=decision)


def _crowded_cells(synthetic_model, **config):
    """Three cells; cell 0 full, hosting one squeezed MC tenant.

    The tenant's predicted margin in the crowded cell is 0.35; an empty
    sibling would give it far more, so a coordinator watching with
    ``margin_threshold=0.5`` sees a collapse while the default (0.0 —
    a predicted violation) does not.  ``config`` overrides the cells'
    :class:`ServiceConfig` fields.
    """
    cells = sharded_service(synthetic_model, 3, num_nodes=12, **config).cells
    for i in range(3):
        _load(cells[0], _job(f"be-{i}"))
    _load(cells[0], _job("mc", workload="appB", qos=1.6))
    return cells


def _tenant_cell(cells, job_id: str):
    homes = [
        cell.cell_id
        for cell in cells
        if any(job.job_id == job_id for job in cell.service.tenants)
    ]
    assert len(homes) == 1
    return homes[0]


def test_no_migration_while_margins_hold(synthetic_model):
    cells = _crowded_cells(synthetic_model)
    log = EventLog()
    moves = GlobalCoordinator().rebalance(cells, 0, log, HeadroomRouter())
    assert moves == []
    assert len(log) == 0
    assert _tenant_cell(cells, "mc") == 0


def test_collapse_triggers_one_gated_migration(synthetic_model):
    cells = _crowded_cells(synthetic_model)
    assert cells[0].service.qos_margin() == pytest.approx(0.35)
    log = EventLog()
    coordinator = GlobalCoordinator(CoordinatorConfig(margin_threshold=0.5))
    moves = coordinator.rebalance(cells, 0, log, HeadroomRouter())
    assert moves == [
        {"job": "mc", "from_cell": 0, "to_cell": 1, "units": 2}
    ]
    assert _tenant_cell(cells, "mc") == 1
    (line,) = log.to_jsonl().splitlines()
    event = json.loads(line)
    assert event["kind"] == "cell_migrate"
    assert event["from_cell"] == 0 and event["to_cell"] == 1
    assert event["margin"] == pytest.approx(0.35)
    # The move happened once; a second sweep sees a healthy source.
    again = coordinator.rebalance(cells, 1, log, HeadroomRouter())
    assert again == []


def test_cells_migration_cost_gates_cross_cell_moves(synthetic_model):
    # The squeezed tenant is inside its bound, so the move repairs no
    # violation and must buy back the cells' own migration cost.
    cells = _crowded_cells(synthetic_model, migration_cost=1e6)
    coordinator = GlobalCoordinator(CoordinatorConfig(margin_threshold=0.5))
    log = EventLog()
    assert coordinator.rebalance(cells, 0, log, HeadroomRouter()) == []
    assert len(log) == 0
    assert _tenant_cell(cells, "mc") == 0


def test_empty_and_best_effort_cells_cannot_collapse(synthetic_model):
    cells = sharded_service(synthetic_model, 3, num_nodes=12).cells
    assert cells[0].service.qos_margin() is None
    _load(cells[0], _job("be-only"))
    assert cells[0].service.qos_margin() is None


def test_migration_cap_bounds_coordinator_churn(synthetic_model):
    cells = _crowded_cells(synthetic_model)
    coordinator = GlobalCoordinator(
        CoordinatorConfig(margin_threshold=0.5, max_migrations_per_epoch=0)
    )
    log = EventLog()
    assert coordinator.rebalance(cells, 0, log, HeadroomRouter()) == []
    assert _tenant_cell(cells, "mc") == 0


def test_no_migration_without_an_absorbing_cell(synthetic_model):
    cells = _crowded_cells(synthetic_model)
    # Fill both siblings: nowhere to move the squeezed tenant.
    for cell_id in (1, 2):
        for i in range(4):
            _load(cells[cell_id], _job(f"fill-{cell_id}-{i}"))
    coordinator = GlobalCoordinator(CoordinatorConfig(margin_threshold=0.5))
    log = EventLog()
    assert coordinator.rebalance(cells, 0, log, HeadroomRouter()) == []
    assert _tenant_cell(cells, "mc") == 0


def test_config_validation():
    with pytest.raises(ServiceError):
        CoordinatorConfig(max_migrations_per_epoch=-1)
