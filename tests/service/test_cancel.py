"""Job cancellation semantics: queued drops, residents depart, all logged."""

import pytest

from repro.core.builder import build_model
from repro.errors import ServiceError
from repro.placement.annealing import AnnealingSchedule
from repro.service.jobs import Job
from repro.service.loop import ConsolidationService, ServiceConfig
from repro.service.stream import FixedStream
from tests._synthetic import quiet_runner, synthetic_factory

FAST_SCHEDULE = AnnealingSchedule(iterations=150, restarts=1)

#: 4 nodes x 2 unit slots = 8 slots; four 4-unit arrivals at epoch 0
#: force two admissions and two queued jobs, no rejections.
CROWD = tuple(
    Job(job_id=f"job-{i}", workload="A", num_units=4,
        duration_epochs=6, arrival_epoch=0)
    for i in range(4)
)


@pytest.fixture(scope="module")
def model():
    runner = quiet_runner(num_nodes=4, factory=synthetic_factory())
    report = build_model(
        runner, ["A", "B"], policy_samples=4, seed=31, span=4
    )
    return report.model


def make_service(model, jobs=CROWD, **config_kwargs):
    config_kwargs.setdefault("schedule", FAST_SCHEDULE)
    return ConsolidationService(
        quiet_runner(num_nodes=4, factory=synthetic_factory()),
        model,
        FixedStream(schedule=tuple(jobs)),
        config=ServiceConfig(**config_kwargs),
        seed=4,
    )


def split_by_state(service):
    """(resident ids, queued ids) after the epochs run so far."""
    admitted = {
        dict(e.payload)["job"] for e in service.log.of_kind("admit")
    }
    queued = {
        dict(e.payload)["job"] for e in service.log.of_kind("queue")
    }
    return sorted(admitted), sorted(queued - admitted)


class TestCancelRequests:
    def test_unknown_job_raises(self, model):
        service = make_service(model)
        service.run(1)
        with pytest.raises(ServiceError, match="neither queued nor resident"):
            service.cancel("ghost")

    def test_request_is_idempotent(self, model):
        service = make_service(model)
        service.run(1)
        resident, _ = split_by_state(service)
        service.cancel(resident[0])
        service.cancel(resident[0])
        service.run(2)
        assert service.cancelled_total == 1


class TestQueuedCancel:
    def test_drops_silently_from_the_queue(self, model):
        service = make_service(model)
        service.run(1)
        resident, queued = split_by_state(service)
        assert len(resident) == 2 and len(queued) == 2
        victim = queued[0]
        service.cancel(victim)
        service.run(6)
        events = service.log.of_kind("job_cancel")
        assert len(events) == 1
        payload = dict(events[0].payload)
        assert payload["job"] == victim
        assert payload["state"] == "queued"
        # Silent drop: the victim is neither rejected nor admitted
        # afterwards (the *other* queued job may still time out and
        # reject on its own).
        for kind in ("reject", "admit"):
            jobs = {
                dict(e.payload)["job"] for e in service.log.of_kind(kind)
            }
            assert victim not in jobs
        assert service.cancelled_total == 1


class TestRunningCancel:
    def test_departs_at_the_next_boundary(self, model):
        service = make_service(model)
        service.run(2)
        resident, _ = split_by_state(service)
        victim = resident[0]
        service.cancel(victim)
        assert victim in [job.job_id for job in service.tenants]
        service.run(3)
        assert victim not in [job.job_id for job in service.tenants]
        events = service.log.of_kind("job_cancel")
        assert len(events) == 1
        payload = dict(events[0].payload)
        assert payload["job"] == victim
        assert payload["state"] == "running"
        assert payload["epochs_resident"] == 2
        # A cancelled resident must not also depart naturally.
        departed = [
            dict(e.payload)["job"] for e in service.log.of_kind("depart")
        ]
        assert victim not in departed

    def test_cancel_beats_a_same_boundary_departure(self, model):
        jobs = (
            Job(job_id="short", workload="A", num_units=2,
                duration_epochs=1, arrival_epoch=0),
        )
        service = make_service(model, jobs)
        service.run(1)
        service.cancel("short")
        service.run(3)
        # Both the natural departure and the cancel fall on epoch 1;
        # cancels are processed first, so the job cancels rather than
        # completing — and does not do both.
        assert service.log.counts().get("job_cancel", 0) == 1
        assert service.log.counts().get("depart", 0) == 0
        assert service.cancelled_total == 1


class TestCancelAcrossCheckpoints:
    def test_pending_request_survives_restore_byte_identically(self, model):
        straight = make_service(model)
        straight.run(2)
        resident, _ = split_by_state(straight)
        victim = resident[1]

        resumed = make_service(model)
        resumed.run(2)
        boundary = resumed.checkpoint()
        resumed.cancel(victim)
        checkpoint = resumed.checkpoint()
        assert checkpoint.cells[0].pending_cancels == (victim,)

        fresh = make_service(model)
        fresh.restore(checkpoint)
        fresh.run(6)

        straight.cancel(victim)
        straight.run(6)
        # The restored log holds only events after the boundary; the
        # straight run's tail must match it byte for byte.
        tail = [e.to_json() for e in straight.log.since(checkpoint.log_length)]
        assert [e.to_json() for e in fresh.log.since(0)] == tail
        assert fresh.cancelled_total == straight.cancelled_total == 1
        # The pre-cancel boundary checkpoint carries no request.
        assert boundary.cells[0].pending_cancels == ()

    def test_cancelled_counter_round_trips(self, model):
        service = make_service(model)
        service.run(1)
        resident, queued = split_by_state(service)
        service.cancel(resident[0])
        service.cancel(queued[0])
        service.run(3)
        assert service.cancelled_total == 2
        checkpoint = service.checkpoint()
        restored = make_service(model)
        restored.restore(checkpoint)
        assert restored.cancelled_total == 2
