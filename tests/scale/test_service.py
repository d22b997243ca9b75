"""The sharded service's core contracts: one-cell identity, determinism
and aggregation."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ServiceError
from repro.core.online import OnlineModel
from repro.cluster.cluster import ClusterSpec
from repro.scale import build_sharded_service
from tests.scale._helpers import arrival_stream, sharded_service
from tests.test_cli import SERVE_FAST

EPOCHS = 6


@pytest.fixture(scope="module")
def serve_days(tmp_path_factory):
    """Output directories of a flat ``repro serve`` day and its
    ``--cells 1`` twin."""
    days = {}
    for name, flags in (("flat", []), ("one_cell", ["--cells", "1"])):
        out = tmp_path_factory.mktemp(name)
        assert main(
            SERVE_FAST + flags + [
                "--event-log", str(out / "events.jsonl"),
                "--snapshot", str(out / "snapshot.json"),
            ]
        ) == 0
        days[name] = out
    return days


def test_one_cell_replays_the_flat_service_byte_for_byte(serve_days):
    """The load-bearing equivalence: ``--cells 1`` == the flat service."""
    for name in ("events.jsonl", "snapshot.json"):
        assert (serve_days["one_cell"] / name).read_bytes() == (
            serve_days["flat"] / name
        ).read_bytes()


def test_one_cell_events_carry_no_cell_field(serve_days):
    out = serve_days["one_cell"]
    for line in (out / "events.jsonl").read_text().splitlines():
        assert "cell" not in json.loads(line)
    snapshot = json.loads((out / "snapshot.json").read_text())
    assert all("cells" not in s for s in snapshot["per_epoch"])


def test_multi_cell_day_is_deterministic(synthetic_model):
    a = sharded_service(synthetic_model, 3)
    a.run(EPOCHS)
    b = sharded_service(synthetic_model, 3)
    b.run(EPOCHS)
    assert a.log.to_jsonl() == b.log.to_jsonl()
    assert [s.to_dict() for s in a.snapshots] == [
        s.to_dict() for s in b.snapshots
    ]


def test_multi_cell_events_are_cell_tagged(synthetic_model):
    sharded = sharded_service(synthetic_model, 3)
    sharded.run(EPOCHS)
    events = [json.loads(l) for l in sharded.log.to_jsonl().splitlines()]
    assert events, "the day produced no events"
    for event in events:
        if event["kind"] == "cell_migrate":
            # Coordinator events are global: they name both endpoints.
            assert {"from_cell", "to_cell"} <= set(event)
        else:
            assert event["cell"] in (0, 1, 2)
    # The global log holds every cell's events.
    merged_per_cell = {
        cell.cell_id: sum(
            1
            for e in events
            if e["kind"] != "cell_migrate" and e["cell"] == cell.cell_id
        )
        for cell in sharded.cells
    }
    for cell in sharded.cells:
        assert merged_per_cell[cell.cell_id] == len(cell.service.log)


def test_multi_cell_snapshot_aggregates_and_adds_cell_rows(synthetic_model):
    sharded = sharded_service(synthetic_model, 3)
    sharded.run(EPOCHS)
    snap = sharded.snapshots[-1]
    assert snap.cells is not None and len(snap.cells) == 3
    assert snap.running_jobs == sum(
        row["running_jobs"] for row in snap.cells
    )
    assert snap.queued_jobs == sum(row["queued_jobs"] for row in snap.cells)
    assert snap.admitted_total == sum(
        cell.service.snapshots[-1].admitted_total for cell in sharded.cells
    )
    for row in snap.cells:
        assert set(row) == {
            "cell",
            "nodes",
            "running_jobs",
            "queued_jobs",
            "free_slots",
            "utilization",
            "worst_qos_margin",
            "migrated_units_total",
            "migrations_in_total",
            "migrations_out_total",
        }
    # The cells section round-trips through serialization.
    from repro.service.telemetry import MetricsSnapshot

    assert MetricsSnapshot.from_dict(snap.to_dict()).cells == snap.cells


def test_cell_workers_fan_out_matches_serial(synthetic_model):
    serial = sharded_service(synthetic_model, 3)
    serial.run(EPOCHS)
    parallel = sharded_service(synthetic_model, 3, cell_workers=4)
    parallel.run(EPOCHS)
    assert parallel.log.to_jsonl() == serial.log.to_jsonl()
    assert [s.to_dict() for s in parallel.snapshots] == [
        s.to_dict() for s in serial.snapshots
    ]


def test_wave_routing_respects_queue_room(synthetic_model):
    """No cell's intake may exceed its queue room while siblings have room."""
    sharded = sharded_service(synthetic_model, 3, seed=11)
    for epoch in range(4):
        arrivals = sharded.stream.arrivals(epoch)
        room = {
            cell.cell_id: max(
                0,
                cell.service.config.max_queue_depth
                - cell.service.queue_depth,
            )
            for cell in sharded.cells
        }
        assignments = sharded.router.route_many(
            sharded.cells, arrivals, queue_room=room
        )
        taken = {cell.cell_id: 0 for cell in sharded.cells}
        for job in arrivals:
            taken[assignments[job.job_id]] += 1
        spare = sum(
            max(0, room[cid] - taken[cid]) for cid in room
        )
        for cid, count in taken.items():
            if count > room[cid]:
                assert spare == 0, (
                    f"cell {cid} over-filled while {spare} slots were free"
                )
        sharded.run_epoch(epoch)


def test_multi_cell_rejects_shared_online_model(synthetic_model):
    online = OnlineModel(synthetic_model)
    with pytest.raises(ServiceError):
        build_sharded_service(
            online,
            ClusterSpec(num_nodes=12, cores_per_node=16),
            3,
            arrival_stream(),
        )


def test_epochs_must_be_sequential(synthetic_model):
    sharded = sharded_service(synthetic_model, 2)
    with pytest.raises(ServiceError):
        sharded.run_epoch(3)
    with pytest.raises(ServiceError):
        sharded.run(0)
