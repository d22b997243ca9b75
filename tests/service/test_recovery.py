"""Crash-safe service recovery: checkpoints, log recovery, resume identity."""

import json

import pytest

from repro.core.builder import build_model
from repro.errors import MeasurementFault, ServiceError
from repro.faults import FaultConfig, FaultPlan, RetryPolicy
from repro.placement.annealing import AnnealingSchedule
from repro.service.checkpoint import CHECKPOINT_VERSION, ServiceCheckpoint
from repro.service.events import EventLog
from repro.service.loop import ConsolidationService, ServiceConfig
from repro.service.stream import StreamConfig, WorkloadStream
from repro.sim.runner import ClusterRunner
from tests._synthetic import QUIET_NOISE, quiet_runner, synthetic_factory

FAST_SCHEDULE = AnnealingSchedule(iterations=150, restarts=1)


@pytest.fixture(scope="module")
def environment():
    runner = quiet_runner(num_nodes=4, factory=synthetic_factory())
    report = build_model(
        runner, ["A", "B"], policy_samples=4, seed=31, span=4
    )
    return runner, report.model


def make_service(environment, *, seed=4, checkpoint_path=None, runner=None):
    shared_runner, model = environment
    stream = WorkloadStream(
        StreamConfig(workloads=("A", "B"), arrival_rate=1.2), seed=seed
    )
    return ConsolidationService(
        runner or shared_runner,
        model,
        stream,
        config=ServiceConfig(schedule=FAST_SCHEDULE),
        seed=seed,
        checkpoint_path=checkpoint_path,
    )


class TestEventLogPersistence:
    def _sample_log(self):
        log = EventLog()
        log.append("arrival", 0, job="j0", workload="A")
        log.append("admit", 0, job="j0", workload="A")
        log.append("epoch_end", 0, running=1, queued=0)
        return log

    def test_attached_log_is_durable_per_append(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog()
        log.attach(path)
        log.append("arrival", 0, job="j0", workload="A")
        # On disk immediately, before any detach/write call.
        assert EventLog.recover(path).to_jsonl() == log.to_jsonl()

    def test_recover_drops_a_torn_tail(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = self._sample_log()
        log.write(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"epoch": 1, "seq": 3, "ki')  # crash mid-append
        recovered = EventLog.recover(path)
        assert recovered.to_jsonl() == log.to_jsonl()

    def test_recover_rejects_mid_file_corruption(self, tmp_path):
        path = tmp_path / "events.jsonl"
        lines = self._sample_log().to_jsonl().splitlines()
        lines[1] = "{garbage"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ServiceError, match="corrupt event log"):
            EventLog.recover(str(path))

    def test_recover_rejects_sequence_gaps(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = self._sample_log()
        entries = [json.loads(line) for line in log.to_jsonl().splitlines()]
        entries[2]["seq"] = 7
        path.write_text(
            "\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n"
        )
        with pytest.raises(ServiceError, match="sequence"):
            EventLog.recover(str(path))

    def test_truncate_rewrites_attached_file(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = self._sample_log()
        log.attach(path)
        log.truncate(1)
        assert len(log) == 1
        assert EventLog.recover(path).to_jsonl() == log.to_jsonl()
        with pytest.raises(ServiceError):
            log.truncate(5)


class TestValidateTail:
    def _day_log(self):
        log = EventLog()
        log.append("arrival", 0, job="j0", workload="A")
        log.append("admit", 0, job="j0", workload="A")
        log.append("epoch_end", 0, running=1, queued=0)
        log.append("epoch_end", 1, running=1, queued=0)
        log.append("depart", 2, job="j0", workload="A")
        return log

    def test_matching_tail_passes(self, tmp_path):
        log = self._day_log()
        log.validate_tail(3, 1)
        log.validate_tail(4, 2, path="anywhere")
        log.validate_tail(0, 0)

    def test_too_short_log_names_both_lengths(self):
        log = self._day_log()
        with pytest.raises(ServiceError) as err:
            log.validate_tail(9, 3, path="/spool/events.jsonl")
        message = str(err.value)
        assert "/spool/events.jsonl" in message
        assert "epoch boundary 3" in message
        assert "5 event(s)" in message
        assert "at least 9" in message

    def test_wrong_boundary_kind_is_named(self):
        log = self._day_log()
        with pytest.raises(ServiceError) as err:
            log.validate_tail(2, 1)  # event 1 is an admit, not epoch_end
        assert "kind 'admit'" in str(err.value)
        assert "close epoch 0" in str(err.value)

    def test_boundary_epoch_mismatch_suggests_different_runs(self):
        log = self._day_log()
        with pytest.raises(ServiceError) as err:
            log.validate_tail(3, 2)  # event 2 closes epoch 0, not 1
        assert "different runs" in str(err.value)

    def test_beyond_boundary_event_from_a_completed_epoch(self):
        log = EventLog()
        log.append("epoch_end", 0, running=0, queued=0)
        log.append("arrival", 0, job="late", workload="A")
        with pytest.raises(ServiceError) as err:
            log.validate_tail(1, 1)
        assert "already-completed epoch 0" in str(err.value)

    def test_uses_the_recovered_source_path_by_default(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        self._day_log().write(path)
        recovered = EventLog.recover(path)
        with pytest.raises(ServiceError, match="events.jsonl"):
            recovered.validate_tail(9, 3)


class TestStartSeq:
    def test_offsets_global_numbering(self):
        log = EventLog(start_seq=7)
        assert len(log) == 7
        event = log.append("arrival", 3, job="j", workload="A")
        assert event.seq == 7
        assert [e.seq for e in log.since(0)] == [7]
        assert log.since(8) == []

    def test_rejects_negative_offsets(self):
        with pytest.raises(ServiceError, match="non-negative"):
            EventLog(start_seq=-1)

    def test_truncate_cannot_reach_below_the_offset(self):
        log = EventLog(start_seq=2)
        log.append("epoch_end", 0, running=0, queued=0)
        with pytest.raises(ServiceError):
            log.truncate(1)
        log.truncate(2)
        assert len(log) == 2

    def test_validate_tail_skips_boundaries_before_the_offset(self):
        # An offset log cannot inspect history it does not hold; a
        # boundary at or before start_seq is vacuously accepted.
        log = EventLog(start_seq=4)
        log.validate_tail(4, 2)
        log.validate_tail(3, 1)


class TestCheckpointRoundTrip:
    @pytest.fixture(scope="class")
    def checkpoint(self, environment):
        service = make_service(environment)
        service.run(3)
        return service.checkpoint()

    def test_capture_reflects_the_service(self, checkpoint):
        assert checkpoint.epoch == 3
        assert checkpoint.version == CHECKPOINT_VERSION
        assert checkpoint.log_length > 0
        assert len(checkpoint.snapshots) == 3

    def test_dict_round_trip(self, checkpoint):
        rebuilt = ServiceCheckpoint.from_dict(checkpoint.to_dict())
        assert rebuilt.to_dict() == checkpoint.to_dict()

    def test_save_load_round_trip(self, checkpoint, tmp_path):
        path = str(tmp_path / "service.ckpt")
        checkpoint.save(path)
        assert ServiceCheckpoint.load(path).to_dict() == checkpoint.to_dict()

    def test_load_rejects_corrupt_json(self, tmp_path):
        path = tmp_path / "service.ckpt"
        path.write_text("{torn")
        with pytest.raises(ServiceError, match="corrupt checkpoint"):
            ServiceCheckpoint.load(str(path))

    def test_from_dict_rejects_wrong_version(self, checkpoint):
        entry = checkpoint.to_dict()
        entry["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(ServiceError, match="version"):
            ServiceCheckpoint.from_dict(entry)

    def test_from_dict_rejects_missing_fields(self, checkpoint):
        entry = checkpoint.to_dict()
        del entry["cells"][0]["counters"]
        with pytest.raises(ServiceError, match="malformed"):
            ServiceCheckpoint.from_dict(entry)


class TestRestoreValidation:
    def test_restore_requires_matching_seed(self, environment):
        donor = make_service(environment)
        donor.run(2)
        checkpoint = donor.checkpoint()
        mismatched = make_service(environment, seed=5)
        with pytest.raises(ServiceError, match="seed"):
            mismatched.restore(checkpoint)

    def test_restore_requires_a_fresh_service(self, environment):
        donor = make_service(environment)
        donor.run(2)
        checkpoint = donor.checkpoint()
        donor_again = make_service(environment)
        donor_again.run(1)
        with pytest.raises(ServiceError, match="fresh"):
            donor_again.restore(checkpoint)

    def test_restore_rejects_a_log_shorter_than_the_checkpoint(
        self, environment
    ):
        donor = make_service(environment)
        donor.run(2)
        checkpoint = donor.checkpoint()
        fresh = make_service(environment)
        with pytest.raises(ServiceError, match="recovered log"):
            fresh.restore(checkpoint, log=EventLog())


class TestResumeIdentity:
    """The recovery contract: a killed-and-resumed day replays the
    uninterrupted day byte for byte."""

    @pytest.fixture(scope="class")
    def uninterrupted(self, environment):
        service = make_service(environment)
        service.run(6)
        return service

    def test_interrupted_day_is_byte_identical(
        self, environment, uninterrupted, tmp_path
    ):
        checkpoint_path = str(tmp_path / "service.ckpt")
        log_path = str(tmp_path / "events.jsonl")

        first = make_service(environment, checkpoint_path=checkpoint_path)
        first.log.attach(log_path)
        first.run(4)
        first.log.detach()
        # Hard kill mid-append: the file gains a torn final line.
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write('{"epoch": 4, "se')

        checkpoint = ServiceCheckpoint.load(checkpoint_path)
        assert checkpoint.epoch == 4
        recovered = EventLog.recover(log_path)
        resumed = make_service(environment, checkpoint_path=checkpoint_path)
        resumed.restore(checkpoint, log=recovered)
        assert resumed.epochs_run == 4
        resumed.log.attach(log_path)
        resumed.run(2)
        resumed.log.detach()

        expected = uninterrupted.log.to_jsonl()
        assert resumed.log.to_jsonl() == expected
        with open(log_path, "r", encoding="utf-8") as handle:
            assert handle.read() == expected
        assert [s.to_dict() for s in resumed.snapshots] == [
            s.to_dict() for s in uninterrupted.snapshots
        ]
        # The on-disk checkpoint now covers the whole day.
        final = ServiceCheckpoint.load(checkpoint_path)
        assert final.epoch == 6

    def test_run_split_without_crash_is_also_identical(
        self, environment, uninterrupted
    ):
        split = make_service(environment)
        split.run(4)
        split.run(2)
        assert split.log.to_jsonl() == uninterrupted.log.to_jsonl()


class TestMeasurementFaultDegradation:
    def test_exhausted_ground_truth_logs_measure_fault(self, environment):
        _, model = environment
        doomed_runner = ClusterRunner(
            quiet_runner(num_nodes=4).spec,
            noise=QUIET_NOISE,
            base_seed=1,
            workload_factory=synthetic_factory(),
            faults=FaultPlan(FaultConfig(seed=0, crash_rate=1.0)),
            retry=RetryPolicy(max_attempts=1),
        )
        service = make_service(environment, runner=doomed_runner)
        service.run(4)
        counts = service.log.counts()
        # Every epoch with tenants fails its ground-truth measurement:
        # the epoch is logged as measure_fault, yields no QoS check,
        # and degrades the involved workloads.
        assert counts.get("measure_fault", 0) >= 1
        assert counts.get("qos_violation", 0) == 0
        assert service._qos_checks == 0
        assert doomed_runner.faulted_workloads
        for event in service.log.of_kind("measure_fault"):
            payload = dict(event.payload)
            assert payload["workloads"]
            assert set(payload["workloads"]) <= {"A", "B"}
