"""ConsolidationDaemon end-to-end: byte identity, API round-trip, recovery."""

import json

import pytest

from repro.daemon import ConsolidationDaemon, SpoolLock
from repro.errors import DaemonError, ServiceError
from repro.faults import FaultConfig, FaultPlan
from tests.daemon._helpers import (
    EPOCHS,
    day_bytes,
    make_blueprint,
    make_daemon,
)

CHAOS = FaultPlan(FaultConfig(
    seed=7, worker_crash_rate=0.4, lease_expiry_rate=0.3
))


class TestByteIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_cannot_change_the_day(
        self, tmp_path, model, flat_day, workers
    ):
        daemon = make_daemon(tmp_path / "spool", model, workers=workers)
        daemon.run(EPOCHS)
        assert day_bytes(daemon) == flat_day
        assert daemon.stats["commits"] == EPOCHS

    def test_injected_crashes_and_wedges_cannot_either(
        self, tmp_path, model, flat_day
    ):
        daemon = make_daemon(
            tmp_path / "spool", model, workers=4, faults=CHAOS
        )
        daemon.run(EPOCHS)
        assert day_bytes(daemon) == flat_day
        stats = daemon.stats
        # The protocol must actually have been exercised...
        assert stats["worker_crashes"] > 0
        assert stats["wedges"] > 0
        assert stats["requeues"] > 0
        # ...and every wedged completion fenced, every epoch committed
        # exactly once.
        assert stats["stale_commits"] == stats["wedges"]
        assert stats["commits"] == EPOCHS

    def test_durable_log_matches_the_in_memory_log(
        self, tmp_path, model, flat_day
    ):
        daemon = make_daemon(tmp_path / "spool", model)
        daemon.run(EPOCHS)
        on_disk = daemon.spool.events_path.read_text(encoding="utf-8")
        assert on_disk == flat_day[0]


class TestResume:
    def test_interrupted_daemon_finishes_byte_identically(
        self, tmp_path, model, flat_day
    ):
        spool = tmp_path / "spool"
        make_daemon(spool, model, workers=2).run(3)
        resumed = make_daemon(spool, model, workers=4, faults=CHAOS)
        fresh = resumed.run(EPOCHS)
        assert len(fresh) == EPOCHS - 3
        assert day_bytes(resumed) == flat_day

    def test_commit_interrupted_mid_append_is_rederived(
        self, tmp_path, model, flat_day
    ):
        spool = tmp_path / "spool"
        daemon = make_daemon(spool, model)
        daemon.run(3)
        # Simulate a crash mid-commit of epoch 3: some events hit the
        # durable log, the checkpoint did not.
        extra = daemon.log.since(0)[-1]
        with open(daemon.spool.events_path, "a", encoding="utf-8") as fh:
            entry = extra.to_dict()
            entry.update(seq=len(daemon.log), epoch=3, kind="arrival")
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
            fh.write('{"epoch": 3, "seq": 99, "ki')  # plus a torn line
        resumed = make_daemon(spool, model)
        resumed.run(EPOCHS)
        assert day_bytes(resumed) == flat_day

    def test_mismatched_log_and_checkpoint_fail_descriptively(
        self, tmp_path, model
    ):
        spool = tmp_path / "spool"
        daemon = make_daemon(spool, model)
        daemon.run(3)
        # Chop the durable log below the checkpoint boundary.
        lines = daemon.spool.events_path.read_text().splitlines()
        daemon.spool.events_path.write_text(
            "\n".join(lines[:2]) + "\n", encoding="utf-8"
        )
        resumed = make_daemon(spool, model)
        with pytest.raises(ServiceError) as err:
            resumed.run(EPOCHS)
        message = str(err.value)
        assert "epoch boundary 3" in message
        assert str(daemon.spool.events_path) in message
        assert "2 event(s)" in message

    def test_finished_spool_runs_nothing(self, tmp_path, model, flat_day):
        spool = tmp_path / "spool"
        make_daemon(spool, model).run(EPOCHS)
        again = make_daemon(spool, model)
        assert again.run(EPOCHS) == []
        assert day_bytes(again) == flat_day


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs", [{"workers": 0}, {"lease_ticks": 1}, {"exec_ticks": 0}]
    )
    def test_rejected_pool_creates_no_spool(self, tmp_path, model, kwargs):
        with pytest.raises(DaemonError):
            make_daemon(tmp_path / "spool", model, **kwargs)
        assert not (tmp_path / "spool").exists()


class TestSingleInstance:
    def test_second_daemon_on_the_spool_fails_fast(self, tmp_path, model):
        spool = tmp_path / "spool"
        daemon = make_daemon(spool, model)
        with SpoolLock(daemon.spool.lock_path):
            with pytest.raises(DaemonError, match="another daemon"):
                daemon.run(1)

    def test_lock_is_released_after_a_run(self, tmp_path, model):
        spool = tmp_path / "spool"
        make_daemon(spool, model).run(1)
        lock = SpoolLock(spool / "daemon.pid")
        lock.acquire()
        lock.release()


class TestSubmitStatusCancelRoundTrip:
    def test_live_round_trip_against_the_daemon(self, tmp_path, model):
        daemon = make_daemon(tmp_path / "spool", model)
        daemon.run(2)
        record = daemon.submit(
            "A", num_units=2, duration_epochs=6, job_id="mine"
        )
        assert record.status == "submitted"
        daemon.run(3)
        record = daemon.status("mine")
        assert record.arrival_epoch == 2
        assert record.status in ("running", "waiting")
        daemon.cancel("mine")
        daemon.run(EPOCHS)
        record = daemon.status("mine")
        assert record.status == "cancelled"
        cancels = daemon.log.of_kind("job_cancel")
        assert [dict(e.payload)["job"] for e in cancels] == ["mine"]

    def test_unprofiled_submission_is_rejected_and_the_day_goes_on(
        self, tmp_path, model
    ):
        daemon = make_daemon(tmp_path / "spool", model)
        daemon.submit("Z.bogus", num_units=2, duration_epochs=3, job_id="typo")
        daemon.run(2)
        assert daemon.status("typo").status == "rejected"
        daemon.run(EPOCHS)
        assert daemon.snapshots[-1].epoch == EPOCHS - 1

    def test_submission_changes_only_the_tail_of_the_day(
        self, tmp_path, model, flat_day
    ):
        daemon = make_daemon(tmp_path / "spool", model)
        daemon.run(3)
        daemon.submit("B", num_units=2, duration_epochs=1, job_id="late")
        daemon.run(EPOCHS)
        flat_lines = flat_day[0].splitlines()
        got_lines = daemon.log.to_jsonl().splitlines()
        # Epochs 0-2 committed before the submission are untouched.
        boundary = daemon.snapshots[2]
        assert boundary.to_dict() == flat_day[1][2]
        prefix = [l for l in flat_lines if json.loads(l)["epoch"] < 3]
        assert got_lines[:len(prefix)] == prefix
        arrivals = [
            dict(e.payload)["job"]
            for e in daemon.log.of_kind("arrival")
        ]
        assert "late" in arrivals

    def test_two_daemons_disagree_only_by_the_submission(
        self, tmp_path, model
    ):
        # The same submissions at the same boundaries reproduce the
        # same day — the spool is part of the deterministic input.
        days = []
        for name in ("one", "two"):
            daemon = make_daemon(tmp_path / name, model)
            daemon.run(2)
            daemon.submit("A", num_units=2, duration_epochs=2,
                          job_id="fixed")
            daemon.run(EPOCHS)
            days.append(day_bytes(daemon))
        assert days[0] == days[1]
