"""Sharded elastic days: every cell is the flat elastic pool over its shard.

``repro serve --cells 2 --provider elastic`` builds each cell's pool
with the same ``provider_setup`` the flat service uses, at the shard's
node count: the cell starts at its shard size and may grow by the flat
default of 4 spot nodes.  The elastic invariants must hold per cell,
and a killed sharded elastic day must resume byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.service.checkpoint import ServiceCheckpoint

PLAN = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "baselines" / "churn_plan.json"
)
DAY = [
    "serve", "--seed", "2016", "--cells", "2", "--nodes", "16",
    "--provider", "elastic", "--churn", str(PLAN),
]
EPOCHS = 6
KILL = 3


def _serve(out: Path, epochs: int, *extra: str) -> None:
    assert main(
        DAY + [
            "--epochs", str(epochs),
            "--event-log", str(out / "events.jsonl"),
            "--checkpoint", str(out / "day.ckpt"),
            *extra,
        ]
    ) == 0


@pytest.fixture(scope="module")
def day(tmp_path_factory):
    """The uninterrupted day: its log, snapshot and final checkpoint."""
    out = tmp_path_factory.mktemp("elastic-cells")
    _serve(out, EPOCHS, "--snapshot", str(out / "snapshot.json"))
    return out


def _events(out: Path):
    return [
        json.loads(line)
        for line in (out / "events.jsonl").read_text().splitlines()
    ]


def _durable(checkpoint: ServiceCheckpoint):
    """Each cell's durable node ids (they never change during a day)."""
    return [
        {
            entry["node_id"]
            for entry in cell.provider_state["instances"]
            if entry["node_class"] == "durable"
        }
        for cell in checkpoint.cells
    ]


def test_cells_are_the_flat_pool_over_their_shard(day):
    checkpoint = ServiceCheckpoint.load(str(day / "day.ckpt"))
    assert [
        cell.provider_state["max_nodes"] for cell in checkpoint.cells
    ] == [8 + 4, 8 + 4]


def test_no_mission_critical_tenant_on_spot(day):
    events = _events(day)
    assert any(e["kind"] == "preempt_reclaim" for e in events)
    checkpoint = ServiceCheckpoint.load(str(day / "day.ckpt"))
    durable = _durable(checkpoint)
    critical = {
        e["job"] for e in events
        if e["kind"] == "arrival" and e["qos_target"] is not None
    }
    for event in events:
        if event["kind"] == "admit" and event["job"] in critical:
            assert set(event["nodes"]) <= durable[event["cell"]], event
        if event["kind"] == "job_requeue" and event["reason"] == "preempted":
            assert event["job"] not in critical, event
    for cell, nodes in zip(checkpoint.cells, durable):
        for job, _ in cell.tenants:
            if job.mission_critical:
                assert set(cell.assignment[job.job_id]) <= nodes


def test_requeued_equals_preempted(day):
    checkpoint = ServiceCheckpoint.load(str(day / "day.ckpt"))
    preempted = sum(cell.counters["preempted"] for cell in checkpoint.cells)
    requeued = sum(cell.counters["requeued"] for cell in checkpoint.cells)
    logged = sum(
        1 for e in _events(day)
        if e["kind"] == "job_requeue" and e["reason"] == "preempted"
    )
    assert preempted > 0
    assert requeued == preempted == logged


def test_killed_day_resumes_byte_identically(day, tmp_path):
    _serve(tmp_path, KILL)
    assert ServiceCheckpoint.load(str(tmp_path / "day.ckpt")).epoch == KILL
    _serve(
        tmp_path, EPOCHS, "--snapshot", str(tmp_path / "snapshot.json"),
        "--resume",
    )
    for name in ("events.jsonl", "snapshot.json", "day.ckpt"):
        assert (tmp_path / name).read_bytes() == (day / name).read_bytes()
