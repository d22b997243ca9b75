"""Pure epoch execution and the daemon's worker pool.

The keystone of the daemon is that one epoch of the consolidation
service is a **pure function** of ``(checkpoint, arrivals, cancels)``:
every stochastic choice inside an epoch derives from ``stable_seed``
labels, measurements are label-seeded and runner-state-independent, and
the checkpoint carries all non-derivable state.  :func:`execute_epoch`
exploits that — it builds a *fresh* service around the blueprint,
restores the checkpoint, and runs exactly one epoch.  Because the
function is pure, re-executing an epoch after a worker crash (or
executing it twice concurrently under a fencing race) produces the same
bytes, so the daemon can promise byte-identical event logs regardless
of worker count or injected faults.

:class:`ExecutorPool` models the N workers as a deterministic
logical-tick scheduler rather than OS threads: workers claim tasks in
worker-id order, renew their leases every tick, and — under an injected
:class:`~repro.faults.plan.FaultPlan` — crash (stop renewing and die)
or wedge (stop renewing but finish late and attempt a stale commit).
Logical concurrency keeps every run replayable while still exercising
the full claim/renew/reap/requeue/fence protocol a thread pool would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.online import OnlineModel
from repro.errors import DaemonError, ServiceError
from repro.daemon.lease import Lease, SlotManager
from repro.service.checkpoint import ServiceCheckpoint
from repro.service.events import ServiceEvent
from repro.service.jobs import Job
from repro.service.loop import ConsolidationService, ServiceConfig
from repro.service.stream import FixedStream
from repro.service.telemetry import MetricsSnapshot


@dataclass(frozen=True)
class EpochTask:
    """One claimable unit of work: run epoch ``epoch`` of the day.

    ``arrivals`` and ``cancels`` are the epoch's frozen inputs (stream
    traffic plus drained spool submissions / cancel markers);
    ``attempt`` counts executions of this epoch so far, so fault draws
    differ per retry while the epoch's *bytes* cannot.
    """

    epoch: int
    arrivals: Tuple[Job, ...] = ()
    cancels: Tuple[str, ...] = ()
    attempt: int = 0

    @property
    def work_id(self) -> str:
        """Lease key; unique per (epoch, attempt)."""
        return f"epoch-{self.epoch}#a{self.attempt}"


@dataclass(frozen=True)
class EpochOutcome:
    """What one pure execution produced (everything a commit needs)."""

    task: EpochTask
    checkpoint: ServiceCheckpoint
    events: Tuple[ServiceEvent, ...]
    snapshot: MetricsSnapshot


class ServiceBlueprint:
    """Everything needed to rebuild the day's service from scratch.

    Parameters
    ----------
    runner_factory:
        Zero-argument callable producing a fresh
        :class:`~repro.sim.runner.ClusterRunner`; called once per
        execution so no runner state can leak between epochs.
    model:
        The *base* (profiled) interference model, shared read-only
        across executions.  Must not be an
        :class:`~repro.core.online.OnlineModel` — each execution wraps
        its own, and loads the learned corrections from the checkpoint.
    config / seed:
        The service's operating knobs and root seed, identical to the
        flat day being reproduced.
    provider_factory:
        Optional zero-argument callable producing a fresh
        :class:`~repro.providers.base.CapacityProvider` per execution.
        Like the runner, the provider is rebuilt from scratch and its
        inventory restored from the checkpoint's ``provider_state``, so
        pool resizes and in-flight preemption warnings survive the
        daemon's claim/crash/re-execute cycle byte-identically.
        ``None`` (the default) runs every execution on the fixed pool
        the service builds over its runner's nodes.
    """

    def __init__(
        self,
        runner_factory,
        model,
        *,
        config: Optional[ServiceConfig] = None,
        seed: int = 0,
        provider_factory=None,
    ) -> None:
        if isinstance(model, OnlineModel):
            raise DaemonError(
                "blueprint needs the base profiled model, not an "
                "OnlineModel — each execution wraps its own and loads "
                "corrections from the checkpoint"
            )
        self.runner_factory = runner_factory
        self.model = model
        self.config = config or ServiceConfig()
        self.seed = seed
        self.provider_factory = provider_factory

    def build(self, stream=None) -> ConsolidationService:
        """A fresh service over a fresh runner (and the shared model)."""
        return ConsolidationService(
            self.runner_factory(),
            self.model,
            stream if stream is not None else FixedStream(),
            config=self.config,
            seed=self.seed,
            provider=(
                self.provider_factory()
                if self.provider_factory is not None
                else None
            ),
        )

    def initial_checkpoint(self) -> ServiceCheckpoint:
        """The pristine epoch-0 boundary a brand-new day starts from."""
        return self.build().checkpoint()


def execute_epoch(
    blueprint: ServiceBlueprint,
    checkpoint: ServiceCheckpoint,
    task: EpochTask,
) -> EpochOutcome:
    """Run one epoch as a pure function of ``(checkpoint, task)``.

    Builds a fresh service, restores the boundary, applies the task's
    cancel requests (a cancel whose job already left the system is a
    no-op, exactly as in the live service), runs the epoch, and returns
    the new boundary plus the events it appended — numbered from the
    checkpoint's global log length, so they splice verbatim onto the
    daemon's durable log.
    """
    if task.epoch != checkpoint.epoch:
        raise DaemonError(
            f"task executes epoch {task.epoch} but the checkpoint is at "
            f"boundary {checkpoint.epoch}"
        )
    service = blueprint.build(FixedStream(schedule=tuple(task.arrivals)))
    service.restore(checkpoint)
    for job_id in task.cancels:
        try:
            service.cancel(job_id)
        except ServiceError:
            # The job departed (or was rejected) before the boundary;
            # the cancel is a no-op, matching the live service.
            pass
    snapshot = service.run_epoch(task.epoch)
    return EpochOutcome(
        task=task,
        checkpoint=service.checkpoint(),
        events=tuple(service.log.since(checkpoint.log_length)),
        snapshot=snapshot,
    )


@dataclass
class _Execution:
    """One worker's in-flight claim (scheduler-internal)."""

    task: EpochTask
    lease: Lease
    worker_id: int
    remaining: int
    #: Renewals left before the worker goes silent; ``None`` renews
    #: forever (healthy), 0 never renews again (crashed/wedged).
    renew_left: Optional[int] = None
    #: Ticks until a crashed worker dies; ``None`` for live workers.
    dies_in: Optional[int] = None


class ExecutorPool:
    """N deterministic logical workers claiming epoch executions.

    Parameters
    ----------
    size:
        Worker count.  Because epoch execution is pure, the count can
        only change *scheduling* (who claims, when leases churn), never
        the committed bytes.
    slots:
        The :class:`~repro.daemon.lease.SlotManager` leases are held
        against (shares the daemon's logical clock).
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`; its ``worker``
        and ``lease`` families decide per (epoch, attempt) whether a
        claim crashes or wedges.
    exec_ticks:
        Logical ticks a healthy execution takes.  Raising it past the
        slot manager's ``lease_ticks`` models a straggling worker that
        must renew to survive.
    """

    def __init__(
        self,
        size: int,
        slots: SlotManager,
        *,
        faults=None,
        exec_ticks: int = 2,
    ) -> None:
        if size <= 0:
            raise DaemonError("executor pool needs at least one worker")
        if exec_ticks <= 0:
            raise DaemonError("exec_ticks must be positive")
        self.size = size
        self.slots = slots
        self.faults = faults
        self.exec_ticks = exec_ticks
        self._next_worker_id = 0
        self._idle: List[int] = [self._spawn() for _ in range(size)]
        self._running: Dict[int, _Execution] = {}
        #: Tasks whose worker died, keyed by the orphaned lease token;
        #: the reaper trades the expired lease back for the task.
        self._orphans: Dict[int, EpochTask] = {}
        self.stats: Dict[str, int] = {
            "claims": 0,
            "completions": 0,
            "worker_crashes": 0,
            "wedges": 0,
            "respawns": 0,
        }

    def _spawn(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        return worker_id

    # ------------------------------------------------------------------
    @property
    def idle_count(self) -> int:
        """Workers waiting for work."""
        return len(self._idle)

    # ------------------------------------------------------------------
    def dispatch(self, task: EpochTask) -> Optional[Lease]:
        """Have the lowest-id idle worker claim ``task``.

        Returns the granted lease, or ``None`` when every worker is
        busy (the task stays queued).  Fault draws happen here, once
        per claim: a *crashing* claim will die after one tick without
        ever renewing; a *wedging* claim renews once, goes silent, but
        keeps executing past its lease.
        """
        if not self._idle:
            return None
        worker_id = self._idle.pop(0)
        lease = self.slots.claim(task.work_id, worker_id)
        crashed = bool(
            self.faults is not None
            and self.faults.worker_crashes(task.epoch, task.attempt)
        )
        wedged = bool(
            not crashed
            and self.faults is not None
            and self.faults.lease_expires(task.epoch, task.attempt)
        )
        if crashed:
            execution = _Execution(
                task=task, lease=lease, worker_id=worker_id,
                remaining=self.exec_ticks, renew_left=0, dies_in=1,
            )
        elif wedged:
            execution = _Execution(
                task=task, lease=lease, worker_id=worker_id,
                remaining=self.exec_ticks + self.slots.lease_ticks + 2,
                renew_left=1,
            )
            self.stats["wedges"] += 1
        else:
            execution = _Execution(
                task=task, lease=lease, worker_id=worker_id,
                remaining=self.exec_ticks,
            )
        self._running[worker_id] = execution
        self.stats["claims"] += 1
        return lease

    def advance(self) -> List[_Execution]:
        """One scheduler tick for every busy worker, in id order.

        Healthy workers renew their lease and make progress; crashed
        workers die (their task becomes an orphan awaiting the reaper,
        and a replacement worker is spawned so the pool stays at
        strength); finished workers return to the idle list.  Returns
        the executions that completed this tick — the daemon computes
        and commits their outcomes.
        """
        completed: List[_Execution] = []
        for worker_id in sorted(self._running):
            execution = self._running[worker_id]
            if execution.dies_in is not None:
                execution.dies_in -= 1
                if execution.dies_in <= 0:
                    del self._running[worker_id]
                    self._orphans[execution.lease.token] = execution.task
                    self._idle.append(self._spawn())
                    self._idle.sort()
                    self.stats["worker_crashes"] += 1
                    self.stats["respawns"] += 1
                continue
            if execution.renew_left is None:
                self.slots.renew(execution.lease)
            elif execution.renew_left > 0:
                self.slots.renew(execution.lease)
                execution.renew_left -= 1
            execution.remaining -= 1
            if execution.remaining <= 0:
                del self._running[worker_id]
                self._idle.append(worker_id)
                self._idle.sort()
                self.stats["completions"] += 1
                completed.append(execution)
        return completed

    def task_of_reaped(self, lease: Lease) -> Optional[EpochTask]:
        """The task behind a reaped lease, for requeueing.

        Covers both orphans (the worker died) and wedged workers (still
        grinding; their eventual commit is fenced by the stale token).
        ``None`` when the lease belongs to no tracked work — e.g. it
        was already traded in.
        """
        task = self._orphans.pop(lease.token, None)
        if task is not None:
            return task
        for execution in self._running.values():
            if execution.lease.token == lease.token:
                return execution.task
        return None
