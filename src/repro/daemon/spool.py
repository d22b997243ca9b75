"""The daemon's durable spool: jobs, statuses, cancel markers, lock.

A spool is a directory the daemon owns::

    spool/
      daemon.pid        # single-instance lock (SpoolLock)
      jobs/00000001.json  # one record per submission, atomically rewritten
      events.jsonl      # the day's durable event log (fsync'd per event)
      checkpoint.json   # last committed epoch boundary

Submissions are the daemon's API surface: ``repro submit`` drops a
record, the daemon drains new records into the next epoch's arrivals,
``repro status`` reads records back, ``repro cancel`` flips a cancel
marker the daemon honours at the next epoch boundary.  Every record
update is an atomic whole-file rewrite, so a concurrent reader sees
either the old record or the new one, never a torn half.

Determinism note: when the daemon drains a submission it *persists* the
assigned ``arrival_epoch`` (and likewise ``cancel_epoch`` for cancel
markers) before executing the epoch.  A daemon that crashes mid-epoch
and resumes therefore rebuilds exactly the same epoch inputs, which is
what keeps interrupted daemon days byte-identical to uninterrupted
ones.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro._util import atomic_write_text
from repro.errors import DaemonError
from repro.service.jobs import Job

#: Lifecycle states of a spooled job.  ``submitted`` → ``arrived`` (the
#: daemon drained it into an epoch) → ``waiting``/``running`` (the
#: service queued or admitted it) → one terminal state.
JOB_STATUSES = (
    "submitted",
    "arrived",
    "waiting",
    "running",
    "completed",
    "rejected",
    "cancelled",
)

#: States a job never leaves.
TERMINAL_STATUSES = ("completed", "rejected", "cancelled")

#: Event-log kinds that move a spooled job's status.
_EVENT_STATUS = {
    "arrival": "arrived",
    "queue": "waiting",
    "admit": "running",
    "reject": "rejected",
    "depart": "completed",
    "job_cancel": "cancelled",
}


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - needs foreign-uid pid
        return True
    return True


class SpoolLock:
    """Single-instance guard over a spool directory.

    An atomic pidfile (``O_CREAT | O_EXCL``) marks the spool as owned;
    a second daemon pointed at the same spool fails fast with a
    :class:`DaemonError` naming the owning pid instead of corrupting
    the shared event log.  A lock left behind by a crashed daemon (its
    pid no longer runs, or the file is torn) is recovered automatically.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._held = False

    def acquire(self) -> None:
        """Take the lock, recovering a stale one; raise if live-owned."""
        if self._held:
            return
        for attempt in range(2):
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                owner = self._read_owner()
                if owner is not None and _pid_alive(owner):
                    raise DaemonError(
                        f"another daemon (pid {owner}) already holds the "
                        f"spool lock {self.path} — stop it, or point this "
                        f"daemon at a different spool directory"
                    )
                # Stale: the owning process is gone (or the pidfile is
                # torn from a crash mid-write).  Clear it and retry the
                # exclusive create once.
                if attempt == 0:
                    try:
                        self.path.unlink()
                    except FileNotFoundError:
                        pass
                    continue
                raise DaemonError(
                    f"lost the race recovering stale spool lock {self.path}"
                )
            try:
                os.write(fd, f"{os.getpid()}\n".encode("ascii"))
                os.fsync(fd)
            finally:
                os.close(fd)
            self._held = True
            return

    def release(self) -> None:
        """Drop the lock (idempotent)."""
        if not self._held:
            return
        try:
            self.path.unlink()
        except FileNotFoundError:  # pragma: no cover - external cleanup
            pass
        self._held = False

    def _read_owner(self) -> Optional[int]:
        try:
            raw = self.path.read_text(encoding="ascii")
            return int(raw.strip())
        except (OSError, ValueError):
            return None

    def __enter__(self) -> "SpoolLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


@dataclass(frozen=True)
class JobRecord:
    """One submission's durable state (what a record file holds)."""

    seq: int
    job_id: str
    workload: str
    num_units: int
    duration_epochs: int
    qos_target: Optional[float]
    weight: float
    status: str = "submitted"
    arrival_epoch: Optional[int] = None
    cancel_requested: bool = False
    cancel_epoch: Optional[int] = None

    @property
    def terminal(self) -> bool:
        """Whether the job can no longer change state."""
        return self.status in TERMINAL_STATUSES

    def to_job(self) -> Job:
        """The service-layer job this record arrives as."""
        if self.arrival_epoch is None:
            raise DaemonError(
                f"job {self.job_id!r} has not been drained into an epoch"
            )
        return Job(
            job_id=self.job_id,
            workload=self.workload,
            num_units=self.num_units,
            duration_epochs=self.duration_epochs,
            arrival_epoch=self.arrival_epoch,
            qos_target=self.qos_target,
            weight=self.weight,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "job_id": self.job_id,
            "workload": self.workload,
            "num_units": self.num_units,
            "duration_epochs": self.duration_epochs,
            "qos_target": self.qos_target,
            "weight": self.weight,
            "status": self.status,
            "arrival_epoch": self.arrival_epoch,
            "cancel_requested": self.cancel_requested,
            "cancel_epoch": self.cancel_epoch,
        }

    @classmethod
    def from_dict(cls, entry: Dict[str, object]) -> "JobRecord":
        try:
            status = str(entry["status"])
            if status not in JOB_STATUSES:
                raise DaemonError(f"unknown job status {status!r}")
            return cls(
                seq=int(entry["seq"]),
                job_id=str(entry["job_id"]),
                workload=str(entry["workload"]),
                num_units=int(entry["num_units"]),
                duration_epochs=int(entry["duration_epochs"]),
                qos_target=(
                    None if entry["qos_target"] is None
                    else float(entry["qos_target"])
                ),
                weight=float(entry["weight"]),
                status=status,
                arrival_epoch=(
                    None if entry["arrival_epoch"] is None
                    else int(entry["arrival_epoch"])
                ),
                cancel_requested=bool(entry["cancel_requested"]),
                cancel_epoch=(
                    None if entry.get("cancel_epoch") is None
                    else int(entry["cancel_epoch"])
                ),
            )
        except DaemonError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise DaemonError(f"malformed job record: {entry!r}") from exc


class JobSpool:
    """The durable job queue and status store over a spool directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    @property
    def lock_path(self) -> Path:
        """The single-instance pidfile."""
        return self.root / "daemon.pid"

    @property
    def events_path(self) -> Path:
        """The daemon's durable event log."""
        return self.root / "events.jsonl"

    @property
    def checkpoint_path(self) -> Path:
        """The last committed epoch boundary."""
        return self.root / "checkpoint.json"

    def _record_path(self, seq: int) -> Path:
        return self.jobs_dir / f"{seq:08d}.json"

    def _write(self, record: JobRecord) -> None:
        atomic_write_text(
            str(self._record_path(record.seq)),
            json.dumps(record.to_dict(), sort_keys=True, indent=2) + "\n",
        )

    def _load(self, path: Path) -> JobRecord:
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise DaemonError(f"{path}: corrupt job record") from exc
        return JobRecord.from_dict(entry)

    # ------------------------------------------------------------------
    # Submission API (used by `repro submit/status/cancel`)
    # ------------------------------------------------------------------
    def jobs(self) -> List[JobRecord]:
        """Every spooled record, in submission order."""
        return [
            self._load(path)
            for path in sorted(self.jobs_dir.glob("*.json"))
        ]

    def status(self, job_id: str) -> JobRecord:
        """The record for ``job_id``; raises if unknown."""
        for record in self.jobs():
            if record.job_id == job_id:
                return record
        raise DaemonError(f"no spooled job with id {job_id!r}")

    def submit(
        self,
        workload: str,
        *,
        num_units: int = 4,
        duration_epochs: int = 1,
        qos_target: Optional[float] = None,
        weight: float = 1.0,
        job_id: Optional[str] = None,
    ) -> JobRecord:
        """Spool a new job for the daemon's next epoch boundary.

        Record files are created exclusively (hard-link of a fully
        written temp file), so concurrent submitters can race on the
        same sequence number and both still land complete records.
        """
        existing = self.jobs()
        if job_id is not None and any(r.job_id == job_id for r in existing):
            raise DaemonError(f"job id {job_id!r} is already spooled")
        seq = (existing[-1].seq + 1) if existing else 1
        while True:
            final_id = job_id if job_id is not None else f"sub-{seq:06d}"
            record = JobRecord(
                seq=seq,
                job_id=final_id,
                workload=workload,
                num_units=num_units,
                duration_epochs=duration_epochs,
                qos_target=qos_target,
                weight=weight,
            )
            # Validate through the service-layer constructor before
            # anything touches disk (bad units/durations fail loudly).
            replace(record, arrival_epoch=0).to_job()
            path = self._record_path(seq)
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(
                json.dumps(record.to_dict(), sort_keys=True, indent=2) + "\n",
                encoding="utf-8",
            )
            try:
                os.link(tmp, path)
            except FileExistsError:
                seq += 1
                continue
            finally:
                tmp.unlink()
            return record

    def request_cancel(self, job_id: str) -> JobRecord:
        """Mark ``job_id`` for cancellation at the next epoch boundary.

        Idempotent; raises :class:`DaemonError` for jobs already in a
        terminal state (there is nothing left to cancel).
        """
        record = self.status(job_id)
        if record.terminal:
            raise DaemonError(
                f"job {job_id!r} is already {record.status}; "
                f"cancellation has nothing to do"
            )
        if record.cancel_requested:
            return record
        record = replace(record, cancel_requested=True)
        self._write(record)
        return record

    # ------------------------------------------------------------------
    # Daemon-side draining (epoch input construction)
    # ------------------------------------------------------------------
    def arrivals_for(self, epoch: int) -> List[Job]:
        """Jobs already assigned to arrive at ``epoch`` (resume rebuild)."""
        return [
            record.to_job()
            for record in self.jobs()
            if record.arrival_epoch == epoch
        ]

    def drain_submissions(self, epoch: int) -> List[Job]:
        """Assign fresh submissions to ``epoch``; returns their jobs.

        A submission whose cancel marker was set before it ever arrived
        is finalized as ``cancelled`` here without entering the service
        at all (no events, nothing to unwind).  The assigned
        ``arrival_epoch`` is persisted *before* the epoch executes, so
        a crash-and-resume rebuilds identical arrivals.
        """
        drained: List[Job] = []
        for record in self.jobs():
            if record.status != "submitted":
                continue
            if record.cancel_requested:
                self._write(replace(record, status="cancelled"))
                continue
            record = replace(
                record, status="arrived", arrival_epoch=epoch
            )
            self._write(record)
            drained.append(record.to_job())
        return drained

    def cancels_for(self, epoch: int) -> List[str]:
        """Job ids whose cancellation executes at ``epoch`` (rebuild)."""
        return [
            record.job_id
            for record in self.jobs()
            if record.cancel_epoch == epoch
        ]

    def drain_cancels(self, epoch: int) -> List[str]:
        """Assign fresh cancel markers to ``epoch``; returns job ids.

        Only jobs the service currently knows (``waiting`` or
        ``running`` as of the last committed boundary) are drained; a
        cancel raced against the job's own arrival stays pending until
        the next boundary.
        """
        drained: List[str] = []
        for record in self.jobs():
            if not record.cancel_requested or record.cancel_epoch is not None:
                continue
            if record.status not in ("waiting", "running"):
                continue
            self._write(replace(record, cancel_epoch=epoch))
            drained.append(record.job_id)
        return drained

    # ------------------------------------------------------------------
    # Status folding (the status-updater half of the commit path)
    # ------------------------------------------------------------------
    def apply_events(self, events: Iterable) -> int:
        """Fold committed service events into job statuses.

        Only events about spooled jobs matter (stream-generated traffic
        flows through the same log but has no record here).  Replaying
        the whole recovered log over already-updated records is
        idempotent, which is how a daemon that crashed between its
        checkpoint write and its status update heals on restart.
        """
        records = {record.job_id: record for record in self.jobs()}
        updated = 0
        for event in events:
            status = _EVENT_STATUS.get(event.kind)
            if status is None:
                continue
            payload = dict(event.payload)
            record = records.get(str(payload.get("job")))
            if record is None or record.status == status:
                continue
            if record.terminal and status != "cancelled":
                continue
            record = replace(record, status=status)
            records[record.job_id] = record
            self._write(record)
            updated += 1
        return updated

    def submitted_count(self) -> int:
        """Submissions not yet drained into an epoch (queue depth)."""
        return sum(1 for r in self.jobs() if r.status == "submitted")
