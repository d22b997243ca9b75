"""The consolidation daemon: queue → lease → executor → status-updater.

:class:`ConsolidationDaemon` turns the single-process traffic day into
a persistent service.  Its control loop, per epoch:

1. **build the task** — freeze the epoch's inputs: stream arrivals
   plus freshly drained spool submissions (``repro submit``) and cancel
   markers (``repro cancel``), each persisted with its assigned epoch
   *before* execution so a crashed daemon rebuilds identical inputs;
2. **dispatch** — idle executor workers claim the task under a
   renewable lease from the :class:`~repro.daemon.lease.SlotManager`;
3. **health-check** — every tick, lapsed leases (a crashed or wedged
   worker stopped renewing) are reaped and their work requeued with a
   bumped attempt counter;
4. **commit** (the status-updater) — a completed execution is folded
   back only if its lease is still current: events are appended (fsync
   per event) to the durable log, the checkpoint is atomically
   replaced, and spooled job statuses are updated.  A stale lease —
   the fencing token moved on while the worker wedged — is discarded,
   which is what makes re-execution safe.

Because epoch execution is pure
(:func:`~repro.daemon.executor.execute_epoch`), the committed bytes
are independent of worker count, crash timing, and lease churn: the
same seeded day through 1, 2, or 4 workers — with or without injected
``worker``/``lease`` faults — produces byte-identical event logs and
final snapshots, and they match the flat ``repro serve`` day.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Union

from repro.errors import DaemonError
from repro.daemon.executor import (
    EpochOutcome,
    EpochTask,
    ExecutorPool,
    ServiceBlueprint,
    execute_epoch,
)
from repro.daemon.lease import LogicalClock, SlotManager
from repro.daemon.spool import JobRecord, JobSpool, SpoolLock
from repro.obs import recorder as _obs
from repro.service.checkpoint import ServiceCheckpoint
from repro.service.events import EventLog
from repro.service.telemetry import MetricsSnapshot


class ConsolidationDaemon:
    """A lease-fenced, crash-safe executor over a spooled traffic day.

    Parameters
    ----------
    spool:
        The spool directory (or a :class:`JobSpool` over one) holding
        the durable queue, event log, checkpoint, and lock.
    blueprint:
        How to rebuild the day's service for each pure execution.
    stream:
        Optional background traffic source (``arrivals(epoch)``);
        spooled submissions arrive *after* stream jobs each epoch.
    workers:
        Executor pool size.  Changes scheduling only — committed bytes
        are worker-count-independent.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` whose ``worker``
        and ``lease`` families inject crashes and wedges into the pool.
    lease_ticks / exec_ticks:
        Lease validity and healthy execution time, in logical ticks.
    max_ticks_per_epoch:
        Liveness bound; exceeding it raises instead of spinning.
    """

    def __init__(
        self,
        spool: Union[str, JobSpool],
        blueprint: ServiceBlueprint,
        stream=None,
        *,
        workers: int = 2,
        faults=None,
        lease_ticks: int = 4,
        exec_ticks: int = 2,
        max_ticks_per_epoch: int = 1000,
    ) -> None:
        if max_ticks_per_epoch <= 0:
            raise DaemonError("max_ticks_per_epoch must be positive")
        # The pool checks its arguments before the spool makes any
        # directory, so a rejected daemon leaves nothing behind.
        self.clock = LogicalClock()
        self.slots = SlotManager(lease_ticks=lease_ticks, clock=self.clock)
        self.pool = ExecutorPool(
            workers, self.slots, faults=faults, exec_ticks=exec_ticks
        )
        self.spool = spool if isinstance(spool, JobSpool) else JobSpool(spool)
        self.blueprint = blueprint
        self.stream = stream
        self.faults = faults
        self.max_ticks_per_epoch = max_ticks_per_epoch
        self._lock = SpoolLock(self.spool.lock_path)
        self.log: EventLog = EventLog()
        self.snapshots: List[MetricsSnapshot] = []
        self._checkpoint: Optional[ServiceCheckpoint] = None
        self._stats: Dict[str, int] = {
            "commits": 0,
            "stale_commits": 0,
            "reaps": 0,
            "requeues": 0,
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def epochs_run(self) -> int:
        """Committed epoch boundary (0 before the first epoch)."""
        return self._checkpoint.epoch if self._checkpoint is not None else 0

    @property
    def stats(self) -> Dict[str, int]:
        """Pool and commit-path counters, merged."""
        merged = dict(self.pool.stats)
        merged.update(self._stats)
        return merged

    # ------------------------------------------------------------------
    # The in-process API object (what the CLI verbs call)
    # ------------------------------------------------------------------
    def submit(self, workload: str, **kwargs) -> JobRecord:
        """Spool a job; it arrives at the next uncommitted boundary."""
        return self.spool.submit(workload, **kwargs)

    def status(self, job_id: str) -> JobRecord:
        """The spooled job's current lifecycle state."""
        return self.spool.status(job_id)

    def cancel(self, job_id: str) -> JobRecord:
        """Request cancellation, honoured at the next boundary."""
        return self.spool.request_cancel(job_id)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Adopt the spool's durable state (or initialize a fresh day).

        A recovered log is validated against the checkpoint boundary
        (mismatched artifacts fail with epoch, path, and reason) and
        truncated to it — events appended by a commit the crash
        interrupted are re-derived when the epoch re-runs.  Replaying
        the surviving log over the spool heals job statuses a crash
        between checkpoint write and status update left stale.
        """
        events_path = str(self.spool.events_path)
        if self.spool.checkpoint_path.exists():
            checkpoint = ServiceCheckpoint.load(
                str(self.spool.checkpoint_path)
            )
            log = checkpoint.resume_log(
                EventLog.recover(events_path)
                if self.spool.events_path.exists()
                else EventLog(),
                path=events_path,
            )
        else:
            checkpoint = self.blueprint.initial_checkpoint()
            checkpoint.save(str(self.spool.checkpoint_path))
            log = EventLog()
        self._checkpoint = checkpoint
        self.log = log
        self.log.attach(events_path)
        self.snapshots = list(checkpoint.snapshots)
        self.spool.apply_events(list(self.log))

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def run(self, epochs: int) -> List[MetricsSnapshot]:
        """Advance the spooled day through epoch ``epochs``.

        Takes the spool's single-instance lock for the duration (a
        second daemon on the same spool fails fast), recovers the last
        committed boundary, and runs the remaining epochs.  Returns the
        snapshots of the epochs committed by *this* call, so a resumed
        daemon returns only what it newly ran.
        """
        if epochs <= 0:
            raise DaemonError("epochs must be positive")
        with self._lock:
            self._recover()
            assert self._checkpoint is not None
            fresh: List[MetricsSnapshot] = []
            try:
                for epoch in range(self._checkpoint.epoch, epochs):
                    fresh.append(self._run_one_epoch(epoch))
            finally:
                self.log.detach()
            return fresh

    def _build_task(self, epoch: int) -> EpochTask:
        _obs.RECORDER.gauge(
            "daemon.queue_depth", self.spool.submitted_count()
        )
        arrivals = (
            list(self.stream.arrivals(epoch))
            if self.stream is not None
            else []
        )
        # Submissions drained by a crashed incarnation keep their
        # persisted epoch; fresh ones are assigned (and persisted) now.
        arrivals += self.spool.arrivals_for(epoch)
        arrivals += self.spool.drain_submissions(epoch)
        cancels = self.spool.cancels_for(epoch)
        cancels += self.spool.drain_cancels(epoch)
        return EpochTask(
            epoch=epoch, arrivals=tuple(arrivals), cancels=tuple(cancels)
        )

    def _run_one_epoch(self, epoch: int) -> MetricsSnapshot:
        task = self._build_task(epoch)
        pending: List[EpochTask] = [task]
        committed: Optional[EpochOutcome] = None
        pool_before = dict(self.pool.stats)
        with _obs.RECORDER.span(
            "daemon.epoch", epoch=epoch, workers=self.pool.size
        ) as span:
            ticks = 0
            while committed is None:
                ticks += 1
                if ticks > self.max_ticks_per_epoch:
                    raise DaemonError(
                        f"epoch {epoch} made no progress after "
                        f"{ticks - 1} ticks — every attempt crashed "
                        f"or wedged"
                    )
                self.clock.tick()
                # Health-checker: reap lapsed leases, requeue their work.
                for lease in self.slots.reap_expired():
                    self._stats["reaps"] += 1
                    _obs.RECORDER.count("daemon.reaps")
                    orphan = self.pool.task_of_reaped(lease)
                    if orphan is not None:
                        pending.append(
                            replace(orphan, attempt=orphan.attempt + 1)
                        )
                        self._stats["requeues"] += 1
                        _obs.RECORDER.count("daemon.requeues")
                # Dispatcher: idle workers claim pending work in order.
                while pending:
                    lease = self.pool.dispatch(pending[0])
                    if lease is None:
                        break
                    pending.pop(0)
                    _obs.RECORDER.count("daemon.claims")
                # One scheduler tick; commit current-lease completions.
                for execution in self.pool.advance():
                    if committed is not None or not self.slots.is_current(
                        execution.lease
                    ):
                        # The fencing token moved on (the lease was
                        # reaped and the work re-executed): discard.
                        self._stats["stale_commits"] += 1
                        _obs.RECORDER.count("daemon.stale_commits")
                        continue
                    outcome = execute_epoch(
                        self.blueprint, self._checkpoint, execution.task
                    )
                    self.slots.release(execution.lease)
                    self._commit(outcome)
                    committed = outcome
                _obs.RECORDER.gauge(
                    "daemon.active_leases", self.slots.active_count
                )
            span.set(
                ticks=ticks,
                attempts=committed.task.attempt + 1,
                log_seq_end=len(self.log),
            )
        for key, name in (
            ("worker_crashes", "daemon.worker_crashes"),
            ("respawns", "daemon.workers_spawned"),
            ("wedges", "daemon.lease_wedges"),
        ):
            delta = self.pool.stats[key] - pool_before[key]
            if delta:
                _obs.RECORDER.count(name, delta)
        _obs.RECORDER.count("daemon.epochs")
        return committed.snapshot

    # ------------------------------------------------------------------
    # The status-updater (the only durable mutation site)
    # ------------------------------------------------------------------
    def _commit(self, outcome: EpochOutcome) -> None:
        assert self._checkpoint is not None
        for event in outcome.events:
            appended = self.log.append(
                event.kind, event.epoch, **dict(event.payload)
            )
            if appended.seq != event.seq:
                raise DaemonError(
                    f"commit would renumber event {event.seq} to "
                    f"{appended.seq}; durable log and checkpoint have "
                    f"diverged"
                )
        outcome.checkpoint.save(str(self.spool.checkpoint_path))
        self._checkpoint = outcome.checkpoint
        self.snapshots.append(outcome.snapshot)
        self.spool.apply_events(outcome.events)
        self._stats["commits"] += 1
        _obs.RECORDER.count("daemon.commits")
