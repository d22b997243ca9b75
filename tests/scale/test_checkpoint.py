"""Crash-safe resume of sharded days through the one checkpoint format."""

from __future__ import annotations

import json

import pytest

from repro.errors import ServiceError
from repro.service.checkpoint import CHECKPOINT_VERSION, ServiceCheckpoint
from repro.service.events import EventLog
from repro.service.jobs import Job
from tests.scale._helpers import flat_service, sharded_service


def test_resumed_day_is_byte_identical(synthetic_model, tmp_path):
    """Kill at epoch 3, resume, finish — same bytes as an unbroken day."""
    checkpoint_path = str(tmp_path / "scale.ckpt")
    event_path = str(tmp_path / "events.jsonl")

    unbroken = sharded_service(synthetic_model, 3)
    unbroken.run(6)

    first = sharded_service(
        synthetic_model, 3, checkpoint_path=checkpoint_path
    )
    first.log.attach(event_path)
    first.run(3)
    first.log.detach()

    resumed = sharded_service(
        synthetic_model, 3, checkpoint_path=checkpoint_path
    )
    checkpoint = ServiceCheckpoint.load(checkpoint_path)
    assert checkpoint.epoch == 3
    assert len(checkpoint.cells) == 3
    resumed.restore(checkpoint, log=EventLog.recover(event_path))
    resumed.log.attach(event_path)
    resumed.run(3)
    resumed.log.detach()

    assert resumed.log.to_jsonl() == unbroken.log.to_jsonl()
    assert [s.to_dict() for s in resumed.snapshots] == [
        s.to_dict() for s in unbroken.snapshots
    ]
    with open(event_path, "r", encoding="utf-8") as handle:
        assert handle.read() == unbroken.log.to_jsonl()


def test_checkpoint_round_trips_through_json(synthetic_model, tmp_path):
    path = str(tmp_path / "scale.ckpt")
    service = sharded_service(synthetic_model, 2, checkpoint_path=path)
    service.run(2)
    loaded = ServiceCheckpoint.load(path)
    assert loaded.to_dict() == service.checkpoint().to_dict()
    assert loaded.version == CHECKPOINT_VERSION
    assert sorted(loaded.to_dict()) == [
        "cells", "epochs_run", "log_length", "seed", "snapshots", "version",
    ]


def _transfer(service, job, ends_at: int = 9) -> None:
    decision = service.admission.try_admit(
        service.placement, service.tenants, job
    )
    service.admit_transfer(job, ends_at, decision)


def test_migration_counters_round_trip_in_the_cells(synthetic_model):
    donor = sharded_service(synthetic_model, 2)
    first, second = (cell.service for cell in donor.cells)
    _transfer(first, Job("mover", "appA", 2, 4, 0))
    _transfer(second, *first.transfer_out("mover"))
    assert [
        (s.migrations_in_total, s.migrations_out_total)
        for s in donor.cell_services
    ] == [(1, 1), (1, 0)]
    resumed = sharded_service(synthetic_model, 2)
    resumed.restore(
        ServiceCheckpoint.from_dict(donor.checkpoint().to_dict())
    )
    assert [
        (s.migrations_in_total, s.migrations_out_total)
        for s in resumed.cell_services
    ] == [(1, 1), (1, 0)]
    assert resumed.cell_migrations_total == 2


def test_restore_requires_matching_seed(synthetic_model, tmp_path):
    path = str(tmp_path / "scale.ckpt")
    service = sharded_service(synthetic_model, 2, checkpoint_path=path)
    service.run(1)
    other = sharded_service(synthetic_model, 2, seed=99)
    with pytest.raises(ServiceError):
        other.restore(ServiceCheckpoint.load(path))


def test_restore_requires_matching_cell_count(synthetic_model, tmp_path):
    path = str(tmp_path / "scale.ckpt")
    service = sharded_service(synthetic_model, 2, checkpoint_path=path)
    service.run(1)
    other = sharded_service(synthetic_model, 3)
    with pytest.raises(
        ServiceError, match=r"covers 2 cell\(s\), service has 3"
    ):
        other.restore(ServiceCheckpoint.load(path))


@pytest.mark.parametrize(
    "donor, target, counts",
    [
        ("flat", "sharded", r"covers 1 cell\(s\), service has 2"),
        ("sharded", "flat", r"covers 2 cell\(s\), service has 1"),
    ],
)
def test_flat_and_sharded_checkpoints_do_not_cross(
    synthetic_model, donor, target, counts
):
    build = {
        "flat": lambda: flat_service(synthetic_model),
        "sharded": lambda: sharded_service(synthetic_model, 2),
    }
    service = build[donor]()
    service.run(1)
    with pytest.raises(ServiceError, match=counts):
        build[target]().restore(service.checkpoint())


def test_restore_requires_a_fresh_service(synthetic_model, tmp_path):
    path = str(tmp_path / "scale.ckpt")
    service = sharded_service(synthetic_model, 2, checkpoint_path=path)
    service.run(2)
    with pytest.raises(ServiceError):
        service.restore(ServiceCheckpoint.load(path))


def test_malformed_checkpoint_rejected(synthetic_model, tmp_path):
    path = tmp_path / "scale.ckpt"
    path.write_text("{not json")
    with pytest.raises(ServiceError):
        ServiceCheckpoint.load(str(path))
    path.write_text(json.dumps({"version": CHECKPOINT_VERSION}))
    with pytest.raises(ServiceError):
        ServiceCheckpoint.load(str(path))
    path.write_text(json.dumps({"version": 999}))
    with pytest.raises(ServiceError):
        ServiceCheckpoint.load(str(path))


#: A version-1 flat checkpoint, as the first format wrote it.
_V1_FLAT = {
    "version": 1,
    "seed": 11,
    "counters": {"epochs_run": 1, "admitted": 0, "rejected": 0},
    "tenants": [],
    "queue": [],
    "assignment": None,
    "unit_slots_per_node": 2,
    "snapshots": [],
    "model_state": {},
    "faulted_workloads": [],
    "log_length": 1,
    "pending_cancels": [],
}

#: A version-1 sharded checkpoint: flat cells plus global counters.
_V1_SCALE = {
    "version": 1,
    "seed": 11,
    "epochs_run": 1,
    "cells": [_V1_FLAT, _V1_FLAT],
    "migrations_in": {"0": 0, "1": 0},
    "migrations_out": {"0": 0, "1": 0},
    "snapshots": [],
    "log_length": 2,
}


@pytest.mark.parametrize(
    "layout", [_V1_FLAT, _V1_SCALE], ids=["flat", "scale"]
)
def test_version_1_files_are_rejected(tmp_path, layout):
    path = tmp_path / "old.ckpt"
    path.write_text(json.dumps(layout))
    with pytest.raises(
        ServiceError, match="checkpoint version 1 unsupported"
    ):
        ServiceCheckpoint.load(str(path))


def test_recovered_log_must_cover_the_checkpoint(synthetic_model, tmp_path):
    path = str(tmp_path / "scale.ckpt")
    service = sharded_service(synthetic_model, 2, checkpoint_path=path)
    service.run(2)
    fresh = sharded_service(synthetic_model, 2)
    short = EventLog()
    with pytest.raises(ServiceError):
        fresh.restore(ServiceCheckpoint.load(path), log=short)
