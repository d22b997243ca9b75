"""JobSpool durability, cancel markers, and the single-instance lock."""

import os
import subprocess
import sys

import pytest

from repro.daemon import JobSpool, SpoolLock
from repro.errors import DaemonError, ServiceError
from repro.service.events import EventLog


@pytest.fixture
def spool(tmp_path):
    return JobSpool(tmp_path / "spool")


class TestSubmit:
    def test_assigns_sequential_ids(self, spool):
        first = spool.submit("A")
        second = spool.submit("B", num_units=2)
        assert (first.seq, first.job_id) == (1, "sub-000001")
        assert (second.seq, second.job_id) == (2, "sub-000002")
        assert [r.job_id for r in spool.jobs()] == [
            "sub-000001", "sub-000002"
        ]

    def test_explicit_ids_must_be_unique(self, spool):
        spool.submit("A", job_id="mine")
        with pytest.raises(DaemonError, match="already spooled"):
            spool.submit("B", job_id="mine")

    def test_validates_through_the_job_constructor(self, spool):
        with pytest.raises(ServiceError, match="num_units"):
            spool.submit("A", num_units=0)
        assert spool.jobs() == []

    def test_records_survive_reopening(self, spool):
        spool.submit("A", duration_epochs=3, qos_target=1.25)
        reopened = JobSpool(spool.root)
        record = reopened.status("sub-000001")
        assert record.duration_epochs == 3
        assert record.qos_target == 1.25
        assert record.status == "submitted"

    def test_unknown_job_raises(self, spool):
        with pytest.raises(DaemonError, match="no spooled job"):
            spool.status("ghost")


class TestDraining:
    def test_drained_arrival_epochs_are_persisted(self, spool):
        spool.submit("A")
        drained = spool.drain_submissions(3)
        assert [job.arrival_epoch for job in drained] == [3]
        # A crashed daemon rebuilding epoch 3 sees the same arrivals.
        rebuilt = JobSpool(spool.root).arrivals_for(3)
        assert [job.job_id for job in rebuilt] == ["sub-000001"]
        assert spool.drain_submissions(4) == []

    def test_cancel_before_arrival_never_enters_the_service(self, spool):
        spool.submit("A")
        spool.request_cancel("sub-000001")
        assert spool.drain_submissions(0) == []
        record = spool.status("sub-000001")
        assert record.status == "cancelled"
        assert record.arrival_epoch is None

    def test_cancels_drain_only_for_live_jobs(self, spool):
        spool.submit("A")
        spool.drain_submissions(0)
        spool.request_cancel("sub-000001")
        # Status is still "arrived": the epoch that admits it has not
        # committed, so the cancel waits for the next boundary.
        assert spool.drain_cancels(1) == []
        log = EventLog()
        log.append("admit", 0, job="sub-000001", workload="A")
        spool.apply_events(list(log))
        assert spool.drain_cancels(1) == ["sub-000001"]
        # Persisted: a rebuild of epoch 1 re-issues the same cancel.
        assert JobSpool(spool.root).cancels_for(1) == ["sub-000001"]
        assert spool.drain_cancels(2) == []

    def test_cancel_of_terminal_job_raises(self, spool):
        spool.submit("A")
        spool.drain_submissions(0)
        log = EventLog()
        log.append("admit", 0, job="sub-000001", workload="A")
        log.append("depart", 2, job="sub-000001", workload="A")
        spool.apply_events(list(log))
        with pytest.raises(DaemonError, match="already completed"):
            spool.request_cancel("sub-000001")


class TestApplyEvents:
    def test_folds_lifecycle_and_ignores_stream_jobs(self, spool):
        spool.submit("A")
        spool.submit("B")
        spool.drain_submissions(0)
        log = EventLog()
        log.append("arrival", 0, job="sub-000001", workload="A")
        log.append("admit", 0, job="sub-000001", workload="A")
        log.append("queue", 0, job="sub-000002", reason="no-fit")
        log.append("admit", 0, job="A@e0.0", workload="A")  # stream job
        spool.apply_events(list(log))
        assert spool.status("sub-000001").status == "running"
        assert spool.status("sub-000002").status == "waiting"

    def test_replay_is_idempotent(self, spool):
        spool.submit("A")
        spool.drain_submissions(0)
        log = EventLog()
        log.append("admit", 0, job="sub-000001", workload="A")
        log.append("depart", 3, job="sub-000001", workload="A")
        assert spool.apply_events(list(log)) > 0
        assert spool.apply_events(list(log)) == 0
        assert spool.status("sub-000001").status == "completed"


class TestSpoolLock:
    def test_acquire_is_exclusive_per_spool(self, spool):
        with SpoolLock(spool.lock_path):
            with pytest.raises(DaemonError, match="another daemon \\(pid"):
                SpoolLock(spool.lock_path).acquire()
        # Released: a new daemon may take over.
        with SpoolLock(spool.lock_path):
            pass

    def test_stale_lock_of_a_dead_process_is_recovered(self, spool):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        spool.lock_path.write_text(f"{child.pid}\n", encoding="ascii")
        lock = SpoolLock(spool.lock_path)
        lock.acquire()
        assert spool.lock_path.read_text(encoding="ascii") == f"{os.getpid()}\n"
        lock.release()

    def test_torn_pidfile_is_recovered(self, spool):
        spool.lock_path.write_text("12", encoding="ascii")
        spool.lock_path.write_text("", encoding="ascii")
        lock = SpoolLock(spool.lock_path)
        lock.acquire()
        assert spool.lock_path.read_text(encoding="ascii") == f"{os.getpid()}\n"
        lock.release()
        assert not spool.lock_path.exists()
