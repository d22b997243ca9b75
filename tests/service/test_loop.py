"""Tests for the epoch-driven consolidation service under churn."""

import json

import pytest

from repro.core.builder import build_batch_profiles, build_model
from repro.errors import ServiceError
from repro.placement.annealing import AnnealingSchedule
from repro.service.events import EventLog
from repro.service.jobs import Job
from repro.service.loop import ConsolidationService, ServiceConfig
from repro.service.stream import FixedStream, StreamConfig, WorkloadStream
from repro.sim.runner import ClusterRunner

MIX = ("M.lmps", "M.milc", "H.KM", "C.libq")

#: A seed whose 8-epoch day exercises every service path: admissions,
#: queueing, a rejection, migrations, and a measured QoS violation.
CHURN_SEED = 4

FAST_SCHEDULE = AnnealingSchedule(iterations=400, restarts=1)


@pytest.fixture(scope="module")
def environment():
    runner = ClusterRunner(base_seed=31)
    report = build_model(
        runner, ["M.lmps", "M.milc", "H.KM"], policy_samples=8, seed=31, span=4
    )
    build_batch_profiles(runner, report.model, ["C.libq"], span=4)
    return runner, report.model


def churn_service(environment, *, seed=CHURN_SEED, **config_kwargs):
    runner, model = environment
    config_kwargs.setdefault("schedule", FAST_SCHEDULE)
    stream = WorkloadStream(
        StreamConfig(workloads=MIX, arrival_rate=1.2), seed=seed
    )
    return ConsolidationService(
        runner, model, stream,
        config=ServiceConfig(**config_kwargs), seed=seed,
    )


def spy_on_admissions(service):
    """Record every (tenants, decision) pair the controller produces."""
    recorded = []
    original = service.admission.try_admit

    def spy(placement, tenants, job):
        decision = original(placement, tenants, job)
        recorded.append((list(tenants), decision))
        return decision

    service.admission.try_admit = spy
    return recorded


class TestChurnDay:
    @pytest.fixture(scope="class")
    def day(self, environment):
        service = churn_service(environment)
        decisions = spy_on_admissions(service)
        service.run(8)
        return service, decisions

    def test_exercises_every_path(self, day):
        service, _ = day
        counts = service.log.counts()
        for kind in ("arrival", "admit", "queue", "reject", "migrate",
                     "qos_violation", "depart", "epoch_end"):
            assert counts.get(kind, 0) > 0, f"no {kind} events"

    def test_admission_never_breaks_a_tenant_bound(self, day):
        # The acceptance invariant: an admitted job's predicted
        # placement satisfies every mission-critical resident's bound
        # (and its own).
        _, decisions = day
        admitted = [d for _, d in decisions if d.admitted]
        assert admitted
        for tenants, decision in decisions:
            if not decision.admitted:
                continue
            for job in tenants + [decision.job]:
                constraint = job.qos_constraint()
                if constraint is not None:
                    assert constraint.satisfied_by(decision.predictions)

    def test_violation_events_match_measurements(self, day):
        service, _ = day
        for event in service.log.of_kind("qos_violation"):
            payload = dict(event.payload)
            assert payload["measured"] > payload["bound"]

    def test_counters_match_log(self, day):
        service, _ = day
        counts = service.log.counts()
        final = service.snapshots[-1]
        assert final.admitted_total == counts["admit"]
        assert final.rejected_total == counts["reject"]
        assert final.completed_total == counts["depart"]
        assert final.qos_violations_total == counts["qos_violation"]
        assert final.migration_epochs_total == counts["migrate"]
        assert 0.0 <= final.utilization <= 1.0
        assert 0.0 <= final.violation_rate <= 1.0

    def test_model_learns_from_the_day(self, day):
        service, _ = day
        assert service.snapshots[-1].model_observations > 0


class TestQueueAndRetry:
    def _full_cluster_jobs(self, duration):
        return tuple(
            Job(f"filler{i}", MIX[i % 3], num_units=4,
                duration_epochs=duration, arrival_epoch=0)
            for i in range(4)
        )

    def test_bounded_retry_then_reject(self, environment):
        runner, model = environment
        stream = FixedStream(
            self._full_cluster_jobs(10)
            + (Job("late", "M.lmps", num_units=4, arrival_epoch=0,
                   duration_epochs=2),)
        )
        service = ConsolidationService(
            runner, model, stream,
            config=ServiceConfig(admission_retries=1, schedule=FAST_SCHEDULE),
            seed=1,
        )
        service.run(3)
        queued = service.log.of_kind("queue")
        assert [e.epoch for e in queued] == [0]
        assert dict(queued[0].payload)["reason"] == "no-capacity"
        rejects = service.log.of_kind("reject")
        assert len(rejects) == 1
        payload = dict(rejects[0].payload)
        assert payload["job"] == "late"
        assert payload["attempts"] == 2
        assert service.snapshots[-1].rejected_total == 1

    def test_queued_job_admitted_when_capacity_frees(self, environment):
        runner, model = environment
        stream = FixedStream(
            self._full_cluster_jobs(2)
            + (Job("late", "M.lmps", num_units=4, arrival_epoch=0,
                   duration_epochs=2),)
        )
        service = ConsolidationService(
            runner, model, stream,
            config=ServiceConfig(admission_retries=5, schedule=FAST_SCHEDULE),
            seed=1,
        )
        service.run(4)
        admits = {
            dict(e.payload)["job"]: e for e in service.log.of_kind("admit")
        }
        assert "late" in admits
        late = dict(admits["late"].payload)
        assert admits["late"].epoch == 2  # the epoch the fillers departed
        assert late["waited"] == 2
        assert not service.log.of_kind("reject")

    def test_queue_overflow_rejects_immediately(self, environment):
        runner, model = environment
        jobs = self._full_cluster_jobs(10) + tuple(
            Job(f"wave{i}", "M.lmps", num_units=4, arrival_epoch=0,
                duration_epochs=1)
            for i in range(3)
        )
        service = ConsolidationService(
            runner, model, FixedStream(jobs),
            config=ServiceConfig(
                admission_retries=9, max_queue_depth=2, schedule=FAST_SCHEDULE
            ),
            seed=1,
        )
        service.run(1)
        # Seven arrivals against a depth-2 queue: the first two enter
        # the queue (and are admitted the same epoch), the rest bounce.
        rejects = service.log.of_kind("reject")
        assert len(rejects) == 5
        assert all(
            dict(e.payload)["reason"] == "queue-full" for e in rejects
        )
        admitted = {dict(e.payload)["job"] for e in service.log.of_kind("admit")}
        assert admitted == {"filler0", "filler1"}

    def test_unprofiled_arrival_is_rejected_at_once(self, environment):
        runner, model = environment
        stream = FixedStream((
            Job("typo", "C.gcc", num_units=2, duration_epochs=3),
            Job("known", "M.lmps", num_units=2, duration_epochs=3),
        ))
        service = ConsolidationService(
            runner, model, stream,
            config=ServiceConfig(schedule=FAST_SCHEDULE), seed=1,
        )
        service.run(3)
        typo = [
            (event.kind, dict(event.payload).get("reason"))
            for event in service.log
            if dict(event.payload).get("job") == "typo"
        ]
        assert typo == [("arrival", None), ("reject", "unprofiled")]
        assert [dict(e.payload)["job"] for e in service.log.of_kind("admit")] == [
            "known"
        ]
        assert service.snapshots[-1].rejected_total == 1


class TestMigrationGating:
    def test_infinite_cost_freezes_placement(self, environment):
        service = churn_service(environment, migration_cost=1e9)
        service.run(8)
        assert not service.log.of_kind("migrate")
        assert service.snapshots[-1].migrated_units_total == 0

    def test_default_cost_allows_paying_migrations(self, environment):
        service = churn_service(environment)
        service.run(8)
        migrations = service.log.of_kind("migrate")
        assert migrations
        for event in migrations:
            payload = dict(event.payload)
            assert payload["moved_units"] > 0
            # Every taken migration either repaired a predicted QoS
            # violation or paid for itself.
            assert payload["repairs_qos"] or (
                payload["predicted_gain"]
                > 0.02 * payload["moved_units"]
            )

    def test_reschedule_zero_disables_search(self, environment):
        service = churn_service(environment, reschedule_every=0)
        service.run(8)
        assert not service.log.of_kind("migrate")


class TestDeterminism:
    def test_two_runs_byte_identical(self, environment):
        first = churn_service(environment)
        first.run(8)
        second = churn_service(environment)
        second.run(8)
        assert first.log.to_jsonl() == second.log.to_jsonl()
        assert [s.to_dict() for s in first.snapshots] == [
            s.to_dict() for s in second.snapshots
        ]

    def test_incremental_runs_replay_the_same_day(self, environment):
        whole = churn_service(environment)
        whole.run(8)
        split = churn_service(environment)
        split.run(3)
        split.run(5)
        assert split.log.to_jsonl() == whole.log.to_jsonl()

    def test_log_round_trips_through_json(self, environment, tmp_path):
        service = churn_service(environment)
        service.run(4)
        path = tmp_path / "events.jsonl"
        service.log.write(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == len(service.log)
        parsed = [json.loads(line) for line in lines]
        assert [p["seq"] for p in parsed] == list(range(len(parsed)))


class TestValidation:
    def test_epochs_must_be_positive(self, environment):
        service = churn_service(environment)
        with pytest.raises(ServiceError):
            service.run(0)

    def test_config_validation(self):
        with pytest.raises(ServiceError):
            ServiceConfig(admission_retries=-1)
        with pytest.raises(ServiceError):
            ServiceConfig(max_queue_depth=-1)
        with pytest.raises(ServiceError):
            ServiceConfig(reschedule_every=-1)
        with pytest.raises(ServiceError):
            ServiceConfig(migration_cost=-0.1)

    def test_event_log_rejects_unknown_kind(self):
        log = EventLog()
        with pytest.raises(ServiceError):
            log.append("explode", 0)
        with pytest.raises(ServiceError):
            log.of_kind("explode")
