"""The epoch-driven consolidation service.

:class:`ConsolidationService` turns the offline reproduction into a
long-running controller.  Each epoch it:

1. **departs** tenants whose tenancy expired,
2. **admits** arrivals (and queued retries) through the
   :class:`~repro.service.admission.AdmissionController` — a job enters
   only if a placement of its units onto free slots keeps every
   mission-critical tenant (and itself) inside its QoS bound,
3. **reschedules** the resident mix: a fresh placement search over the
   refined :class:`~repro.core.online.OnlineModel`, migration-gated the
   same way as :class:`~repro.placement.dynamic.DynamicRescheduler` —
   moves must buy back ``migration_cost`` per moved unit, except that a
   migration repairing a predicted QoS violation is always taken,
4. **measures** the placement on the ground-truth runner, folds the
   measured normalized times back into the online model, and flags
   measured QoS violations,
5. **logs** everything to the append-only :class:`EventLog` and emits a
   :class:`~repro.service.telemetry.MetricsSnapshot`.

Every stochastic choice derives from ``stable_seed`` labels, so a
seeded traffic day is fully deterministic: two runs produce
byte-identical event logs and snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro._util import stable_seed
from repro.cluster.cluster import ClusterView
from repro.core.online import OnlineModel
from repro.errors import MeasurementFault, PlacementError, ServiceError
from repro.obs import recorder as _obs
from repro.placement.annealing import AnnealingSchedule
from repro.placement.assignment import Placement
from repro.placement.dynamic import units_moved
from repro.placement.objectives import (
    QoSConstraint,
    predict_placement,
    weighted_total_time,
)
from repro.placement.qos import QoSAwarePlacer
from repro.placement.throughput import ThroughputPlacer
from repro.service.admission import (
    AdmissionController,
    placement_without_job,
)
from repro.service.events import EventLog
from repro.service.jobs import Job
from repro.service.telemetry import MetricsSnapshot
from repro.sim.runner import ClusterRunner


@dataclass(frozen=True)
class ServiceConfig:
    """Operating knobs of the consolidation service.

    Parameters
    ----------
    admission_retries:
        Failed admission attempts a queued job may accumulate beyond
        its first before it is rejected (bounded retry).
    max_queue_depth:
        Arrivals beyond this queue depth are rejected immediately.
    reschedule_every:
        Epochs between placement searches (0 disables rescheduling).
    migration_cost:
        Predicted-total-time units one migrated VM unit must buy back
        (same gate as :class:`~repro.placement.dynamic.DynamicRescheduler`).
    schedule:
        Annealing schedule for the per-epoch searches.  Rescheduling
        assumes the paper's two-unit-slot hosts (the placers' random
        starts do).
    admission_candidates:
        Cap on node combinations the admission controller evaluates
        per decision (its ``max_candidates``).  The default matches
        the flat 8-node service; the scale layer lowers it per cell so
        admission latency stays bounded on 50-node cells.
    """

    admission_retries: int = 2
    max_queue_depth: int = 16
    reschedule_every: int = 1
    migration_cost: float = 0.02
    schedule: AnnealingSchedule = field(
        default_factory=lambda: AnnealingSchedule(iterations=600, restarts=2)
    )
    admission_candidates: int = 4096

    def __post_init__(self) -> None:
        if self.admission_retries < 0:
            raise ServiceError("admission_retries must be non-negative")
        if self.max_queue_depth < 0:
            raise ServiceError("max_queue_depth must be non-negative")
        if self.reschedule_every < 0:
            raise ServiceError("reschedule_every must be non-negative")
        if self.migration_cost < 0:
            raise ServiceError("migration_cost must be non-negative")
        if self.admission_candidates <= 0:
            raise ServiceError("admission_candidates must be positive")


@dataclass
class _QueuedJob:
    job: Job
    failures: int = 0


class ConsolidationService:
    """Admit, place, measure, learn — epoch after epoch.

    Parameters
    ----------
    runner:
        Ground-truth environment placements execute on.
    model:
        Prediction model; wrapped in an :class:`OnlineModel` unless one
        is passed directly, so measurements refine future predictions.
    stream:
        Arrival source exposing ``arrivals(epoch) -> List[Job]``
        (:class:`~repro.service.stream.WorkloadStream` or
        :class:`~repro.service.stream.FixedStream`).
    config:
        Operating knobs.
    seed:
        Root seed for searches and measurement repetitions.
    checkpoint_path:
        When set, a :class:`~repro.service.checkpoint.ServiceCheckpoint`
        is written (atomically) to this path after every completed
        epoch, so a crashed service can resume from its last epoch
        boundary via :meth:`restore`.
    cell_id:
        When this service is one cell of a sharded deployment
        (:mod:`repro.scale`), its cell id.  Every span its epochs
        record then carries a ``cell`` attribute (via
        :func:`repro.obs.recorder.ambient`).  ``None`` — the default —
        is the flat service, whose spans and events are byte-identical
        to releases before the scale layer existed.
    provider:
        Optional :class:`~repro.providers.base.CapacityProvider`
        backing the node pool.  The runner must be built at the
        provider's ``max_nodes`` ceiling.  An *elastic* provider adds a
        capacity phase at the head of every epoch (autoscaling, spot
        preemption, eviction + requeue of reclaimed tenants) plus
        additive snapshot/trace output; a non-elastic provider (the
        ``static`` backend) changes nothing — the day is byte-identical
        to a run with no provider at all.
    """

    def __init__(
        self,
        runner: ClusterRunner,
        model,
        stream,
        *,
        config: Optional[ServiceConfig] = None,
        seed: int = 0,
        checkpoint_path: Optional[str] = None,
        cell_id: Optional[int] = None,
        provider=None,
    ) -> None:
        if provider is not None and provider.max_nodes != runner.spec.num_nodes:
            raise ServiceError(
                f"runner has {runner.spec.num_nodes} nodes but the "
                f"provider's ceiling is {provider.max_nodes}; build the "
                f"runner at max_nodes so every mintable node id has a "
                f"physical identity"
            )
        self.runner = runner
        self.model = model if isinstance(model, OnlineModel) else OnlineModel(model)
        self.stream = stream
        self.config = config or ServiceConfig()
        self.seed = seed
        self.checkpoint_path = checkpoint_path
        self.cell_id = cell_id
        self.provider = provider
        # The admission controller shares the runner's degraded set
        # live: a workload whose profile needed a fallback is predicted
        # with the conservative ALL-max mapping from then on.
        self.admission = AdmissionController(
            self.model,
            runner.spec,
            max_candidates=self.config.admission_candidates,
            degraded_workloads=runner.faulted_workloads,
            capacity=provider,
        )
        self.log = EventLog()
        self.snapshots: List[MetricsSnapshot] = []

        self._placement: Optional[Placement] = None
        self._tenants: Dict[str, Job] = {}
        self._ends_at: Dict[str, int] = {}
        self._queue: List[_QueuedJob] = []
        self._pending_cancels: List[str] = []
        self._epochs_run = 0

        self._admitted = 0
        self._rejected = 0
        self._completed = 0
        self._cancelled = 0
        self._migration_epochs = 0
        self._migrated_units = 0
        self._qos_checks = 0
        self._qos_violations = 0
        self._preempted = 0
        self._requeued = 0
        self._migrations_in = 0
        self._migrations_out = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def placement(self) -> Optional[Placement]:
        """Where the tenants currently sit (``None`` when empty)."""
        return self._placement

    @property
    def tenants(self) -> List[Job]:
        """Resident jobs, in admission order."""
        return list(self._tenants.values())

    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting for admission."""
        return len(self._queue)

    @property
    def epochs_run(self) -> int:
        """Epochs the service has completed so far."""
        return self._epochs_run

    @property
    def cancelled_total(self) -> int:
        """Jobs cancelled (queued or resident) so far."""
        return self._cancelled

    @property
    def preempted_total(self) -> int:
        """Resident jobs evicted by spot preemption reclaims so far."""
        return self._preempted

    @property
    def requeued_total(self) -> int:
        """Jobs returned to the queue (preemption or vanished node)."""
        return self._requeued

    @property
    def migrations_in_total(self) -> int:
        """Tenants moved into this cell from another cell so far."""
        return self._migrations_in

    @property
    def migrations_out_total(self) -> int:
        """Tenants moved out of this cell to another cell so far."""
        return self._migrations_out

    @property
    def cell_services(self) -> Tuple["ConsolidationService", ...]:
        """The flat services a checkpoint captures: this one."""
        return (self,)

    def live_node_count(self) -> int:
        """Nodes currently hosting work (the utilization denominator)."""
        if self.provider is not None:
            return len(self.provider.live_nodes())
        return self.runner.spec.num_nodes

    def schedulable_node_count(self) -> int:
        """Nodes accepting new work (the headroom numerator's pool)."""
        if self.provider is not None:
            return len(self.provider.schedulable_nodes())
        return self.runner.spec.num_nodes

    def utilization(self) -> float:
        """Occupied fraction of the live pool's unit slots."""
        slots = self.live_node_count() * self.admission.unit_slots_per_node
        occupied = sum(job.num_units for job in self._tenants.values())
        return occupied / slots if slots else 0.0

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> None:
        """Request cancellation of a queued or resident job.

        The request takes effect at the next epoch boundary: a queued
        job is dropped from the admission queue silently (no ``reject``
        is logged), a resident job departs its placement.  Both emit a
        ``job_cancel`` event when processed.  A job that departs
        naturally before the boundary makes the request a no-op.
        Pending requests survive checkpoints, so a resumed day honours
        them identically.
        """
        if job_id in self._pending_cancels:
            return
        queued = any(entry.job.job_id == job_id for entry in self._queue)
        if not queued and job_id not in self._tenants:
            raise ServiceError(
                f"job {job_id!r} is neither queued nor resident"
            )
        self._pending_cancels.append(job_id)

    def _process_cancels(self, epoch: int) -> None:
        for job_id in self._pending_cancels:
            entry = next(
                (e for e in self._queue if e.job.job_id == job_id), None
            )
            if entry is not None:
                self._queue.remove(entry)
                self._cancelled += 1
                self.log.append(
                    "job_cancel",
                    epoch,
                    job=job_id,
                    workload=entry.job.workload,
                    state="queued",
                )
                continue
            job = self._tenants.pop(job_id, None)
            if job is None:
                # Departed (or was rejected) before the boundary.
                continue
            del self._ends_at[job_id]
            self._placement = placement_without_job(self._placement, job_id)
            self._cancelled += 1
            self.log.append(
                "job_cancel",
                epoch,
                job=job_id,
                workload=job.workload,
                state="running",
                epochs_resident=epoch - job.arrival_epoch,
            )
        self._pending_cancels = []

    # ------------------------------------------------------------------
    # Epoch phases
    # ------------------------------------------------------------------
    def _occupied_nodes(self) -> set:
        """Node ids hosting at least one resident unit."""
        occupied: set = set()
        if self._placement is not None:
            for spec in self._placement.instances:
                occupied.update(
                    self._placement.nodes_of(spec.instance_key)
                )
        return occupied

    def _qos_margin(self) -> Optional[float]:
        """Worst predicted QoS headroom (bound minus prediction).

        ``None`` when no mission-critical tenant is resident — the
        autoscaler then scales on queue depth alone.
        """
        constraints = self._constraints()
        if not constraints or self._placement is None:
            return None
        predictions = predict_placement(self.model, self._placement)
        return min(
            c.max_normalized_time - predictions[c.instance_key]
            for c in constraints
        )

    def _capacity(self, epoch: int) -> None:
        """Apply the provider's pool changes for this boundary.

        Autoscaling reads the *previous* boundary's pressure signals
        (queue depth, predicted mission-critical margin, idle nodes);
        preemption reclaims evict any still-resident tenants, which are
        requeued at the *front* of the admission queue (bypassing
        ``max_queue_depth`` — an admitted batch job is never dropped by
        a reclaim) with their retry counters reset.
        """
        occupied = self._occupied_nodes()
        idle = [
            n for n in self.provider.schedulable_nodes()
            if n not in occupied
        ]
        events = self.provider.step(
            epoch,
            queue_depth=len(self._queue),
            qos_margin=self._qos_margin(),
            idle_nodes=idle,
        )
        for event in events:
            payload = dict(event.details)
            payload["nodes"] = list(event.nodes)
            if event.node_class is not None:
                payload["node_class"] = event.node_class
            if event.reason is not None:
                payload["reason"] = event.reason
            self.log.append(event.kind, epoch, **payload)
            if event.kind == "autoscale":
                _obs.RECORDER.count("provider.autoscale")
            elif event.kind == "preempt_reclaim":
                _obs.RECORDER.count(
                    "provider.preemptions", len(event.nodes)
                )
                self._evict_reclaimed(epoch, event.nodes)
        live = self.provider.live_nodes()
        spot = sum(1 for n in live if self.provider.is_spot(n))
        _obs.RECORDER.gauge("provider.pool_size", len(live))
        _obs.RECORDER.gauge(
            "provider.spot_fraction", spot / len(live) if live else 0.0
        )

    def _evict_reclaimed(self, epoch: int, nodes) -> None:
        """Evict tenants resident on reclaimed nodes; requeue them.

        Mission-critical tenants are admitted only onto durable nodes,
        so everything evicted here is batch work: it re-enters the
        queue at the front (in admission order) and restarts when
        capacity allows.
        """
        if self._placement is None:
            return
        reclaimed = set(nodes)
        evicted = [
            job for job_id, job in self._tenants.items()
            if reclaimed & set(self._placement.nodes_of(job_id))
        ]
        for job in evicted:
            old_nodes = list(self._placement.nodes_of(job.job_id))
            del self._tenants[job.job_id]
            del self._ends_at[job.job_id]
            self._placement = placement_without_job(
                self._placement, job.job_id
            )
            self._preempted += 1
            self._requeued += 1
            _obs.RECORDER.count("provider.requeues")
            self.log.append(
                "job_requeue",
                epoch,
                job=job.job_id,
                workload=job.workload,
                reason="preempted",
                nodes=old_nodes,
            )
        self._queue[:0] = [_QueuedJob(job) for job in evicted]

    def _depart(self, epoch: int) -> None:
        for job_id in [
            key for key in self._tenants if self._ends_at[key] <= epoch
        ]:
            job = self._tenants.pop(job_id)
            del self._ends_at[job_id]
            self._placement = placement_without_job(self._placement, job_id)
            self._completed += 1
            self.log.append(
                "depart",
                epoch,
                job=job_id,
                workload=job.workload,
                epochs_resident=job.duration_epochs,
            )

    def _arrive(self, epoch: int) -> None:
        for job in self.stream.arrivals(epoch):
            self.log.append(
                "arrival",
                epoch,
                job=job.job_id,
                workload=job.workload,
                units=job.num_units,
                duration=job.duration_epochs,
                qos_target=job.qos_target,
            )
            if len(self._queue) >= self.config.max_queue_depth:
                self._rejected += 1
                self.log.append(
                    "reject", epoch, job=job.job_id, reason="queue-full"
                )
                continue
            self._queue.append(_QueuedJob(job))

    def _admit(self, epoch: int) -> None:
        still_waiting: List[_QueuedJob] = []
        for entry in self._queue:
            decision = self.admission.try_admit(
                self._placement, self.tenants, entry.job
            )
            if decision.admitted and not self.admission.decision_still_valid(
                decision
            ):
                # A node vanished between the admission prediction and
                # its commit (a reclaim racing the admit phase).  The
                # job stays queued — without burning a retry — instead
                # of raising deep inside the epoch body.
                self._requeued += 1
                still_waiting.append(entry)
                self.log.append(
                    "job_requeue",
                    epoch,
                    job=entry.job.job_id,
                    workload=entry.job.workload,
                    reason="node-vanished",
                    nodes=list(
                        decision.placement.nodes_of(entry.job.job_id)
                    ),
                )
                continue
            if decision.admitted:
                job = entry.job
                self._placement = decision.placement
                self._tenants[job.job_id] = job
                self._ends_at[job.job_id] = epoch + job.duration_epochs
                self._admitted += 1
                assert decision.predictions is not None
                self.log.append(
                    "admit",
                    epoch,
                    job=job.job_id,
                    workload=job.workload,
                    nodes=list(decision.placement.nodes_of(job.job_id)),
                    predicted=decision.predictions[job.job_id],
                    waited=entry.failures,
                    candidates=decision.candidates_evaluated,
                )
                continue
            entry.failures += 1
            if entry.failures > self.config.admission_retries:
                self._rejected += 1
                self.log.append(
                    "reject",
                    epoch,
                    job=entry.job.job_id,
                    reason=decision.reason,
                    attempts=entry.failures,
                )
            else:
                still_waiting.append(entry)
                self.log.append(
                    "queue",
                    epoch,
                    job=entry.job.job_id,
                    reason=decision.reason,
                    attempts=entry.failures,
                )
        self._queue = still_waiting

    def _constraints(self) -> List[QoSConstraint]:
        constraints = [
            job.qos_constraint()
            for job in self._tenants.values()
            if job.mission_critical
        ]
        return [c for c in constraints if c is not None]

    def _search_candidate(
        self, epoch: int, allowed: Optional[List[int]] = None
    ) -> Placement:
        """Search a fresh placement, optionally restricted to ``allowed``.

        With ``allowed`` a strict subset of the runner's nodes (the
        elastic pool's schedulable set), the placers run on a compact
        :class:`~repro.cluster.cluster.ClusterView` — a re-indexed
        spec over just those nodes — and the winning assignment is
        lifted back to physical ids.  The search seed is unchanged, so
        full-pool searches stay byte-identical to releases without
        views.
        """
        instances = [job.instance_spec() for job in self._tenants.values()]
        seed = stable_seed(self.seed, "resched", epoch)
        constraints = self._constraints()
        spec = self.runner.spec
        view: Optional[ClusterView] = None
        if allowed is not None and len(allowed) < spec.num_nodes:
            view = ClusterView.of(spec, allowed)
            spec = view.spec
        if constraints:
            placer = QoSAwarePlacer(
                self.model,
                spec,
                constraints,
                schedule=self.config.schedule,
                seed=seed,
            )
            candidate = placer.place(instances).placement
        else:
            placer = ThroughputPlacer(
                self.model,
                spec,
                schedule=self.config.schedule,
                seed=seed,
            )
            candidate = placer.best(instances).placement
        if view is None:
            return candidate
        assignment = view.lift_assignment({
            spec_.instance_key: candidate.nodes_of(spec_.instance_key)
            for spec_ in candidate.instances
        })
        return Placement(
            self.runner.spec,
            list(candidate.instances),
            assignment,
            unit_slots_per_node=candidate.unit_slots_per_node,
        )

    def _lost_nodes(self) -> set:
        """Occupied nodes no longer schedulable (draining or reclaimed)."""
        if self.provider is None or not self.provider.elastic:
            return set()
        if self._placement is None:
            return set()
        return self._occupied_nodes() - set(
            self.provider.schedulable_nodes()
        )

    def _reschedule(self, epoch: int) -> None:
        every = self.config.reschedule_every
        lost = self._lost_nodes()
        if not lost and (
            every == 0
            or epoch == 0
            or epoch % every != 0
            or self._placement is None
            or len(self._tenants) < 2
        ):
            return
        if self._placement is None or not self._tenants:
            return
        allowed: Optional[List[int]] = None
        if self.provider is not None and self.provider.elastic:
            allowed = self.provider.schedulable_nodes()
        try:
            candidate = self._search_candidate(epoch, allowed)
        except PlacementError:
            # The shrunken pool cannot hold the resident mix (e.g. a
            # drain mid-warning with nowhere to go yet); tenants ride
            # out the warning window where they are.
            return
        if self.provider is not None and self.provider.elastic:
            # Admission never puts a mission-critical tenant on spot
            # capacity; migration honours the same invariant.  A
            # candidate that would move one onto a preemptible node is
            # discarded — tenants stay put rather than trade a QoS
            # bound for a reclaim risk.
            for job_id, job in self._tenants.items():
                if job.mission_critical and any(
                    self.provider.is_spot(node)
                    for node in candidate.nodes_of(job_id)
                ):
                    return
        constraints = self._constraints()
        current_predictions = predict_placement(self.model, self._placement)
        candidate_predictions = predict_placement(self.model, candidate)
        current_violation = sum(
            c.violation(current_predictions) for c in constraints
        )
        candidate_violation = sum(
            c.violation(candidate_predictions) for c in constraints
        )
        # Evacuation overrides every gate: leaving units on a draining
        # node loses them at reclaim, which is strictly worse than any
        # predicted posture or migration bill.
        repairs_capacity = bool(lost)
        if candidate_violation > current_violation and not repairs_capacity:
            # Never migrate into a (predicted) worse QoS posture.
            return
        current_total = weighted_total_time(
            current_predictions, self._placement
        )
        candidate_total = weighted_total_time(candidate_predictions, candidate)
        moves = units_moved(self._placement, candidate)
        gain = current_total - candidate_total
        repairs_qos = candidate_violation < current_violation
        if not repairs_capacity and (
            moves == 0
            or not (repairs_qos or gain > self.config.migration_cost * moves)
        ):
            return
        if moves == 0:
            return
        self._placement = candidate
        self._migration_epochs += 1
        self._migrated_units += moves
        payload: Dict[str, object] = {}
        if repairs_capacity:
            payload["evacuated_nodes"] = sorted(lost)
        self.log.append(
            "migrate",
            epoch,
            moved_units=moves,
            predicted_gain=gain,
            repairs_qos=repairs_qos,
            predicted_total=candidate_total,
            **payload,
        )

    def _measure_and_learn(self, epoch: int) -> float:
        if self._placement is None:
            return 0.0
        predictions = predict_placement(self.model, self._placement)
        try:
            measured = self.runner.run_deployments(
                self._placement.deployments(),
                rep=stable_seed(self.seed, "measure", epoch),
            )
        except MeasurementFault as fault:
            # The ground-truth run exhausted its retry budget: this
            # epoch yields no measurement, so the model is not updated
            # and QoS cannot be checked.  The involved workloads are
            # now in the runner's degraded set, so future admission
            # predictions for them fall back to ALL-max.
            self.log.append(
                "measure_fault",
                epoch,
                workloads=sorted(set(fault.workload.split(","))),
                running=len(self._tenants),
            )
            return 0.0
        workload_of = {
            job_id: job.workload for job_id, job in self._tenants.items()
        }
        self.model.observe_placement(predictions, measured, workload_of)
        for job_id, job in self._tenants.items():
            if not job.mission_critical:
                continue
            self._qos_checks += 1
            assert job.qos_target is not None
            if measured[job_id] > job.qos_target:
                self._qos_violations += 1
                self.log.append(
                    "qos_violation",
                    epoch,
                    job=job_id,
                    workload=job.workload,
                    measured=measured[job_id],
                    bound=job.qos_target,
                    predicted=predictions[job_id],
                )
        return weighted_total_time(measured, self._placement)

    def _provider_block(self) -> Optional[Dict[str, object]]:
        """The snapshot's pool picture (``None`` unless elastic)."""
        if self.provider is None or not self.provider.elastic:
            return None
        live = self.provider.live_nodes()
        spot = sum(1 for n in live if self.provider.is_spot(n))
        draining = sum(1 for n in live if self.provider.is_draining(n))
        return {
            "pool_size": len(live),
            "durable_nodes": len(live) - spot,
            "spot_nodes": spot,
            "draining_nodes": draining,
            "spot_fraction": round(spot / len(live), 6) if live else 0.0,
            "preempted_total": self._preempted,
            "requeued_total": self._requeued,
        }

    def _snapshot(self, epoch: int) -> MetricsSnapshot:
        staleness = self.model.staleness_report()
        observed = {workload for workload, count, _, _ in staleness if count > 0}
        snapshot = MetricsSnapshot(
            epoch=epoch,
            running_jobs=len(self._tenants),
            queued_jobs=len(self._queue),
            utilization=self.utilization(),
            admitted_total=self._admitted,
            rejected_total=self._rejected,
            completed_total=self._completed,
            migration_epochs_total=self._migration_epochs,
            migrated_units_total=self._migrated_units,
            qos_checks_total=self._qos_checks,
            qos_violations_total=self._qos_violations,
            model_observations=sum(count for _, count, _, _ in staleness),
            unobserved_workloads=len(
                [w for w in self.model.workloads if w not in observed]
            ),
            provider=self._provider_block(),
        )
        self.snapshots.append(snapshot)
        return snapshot

    # ------------------------------------------------------------------
    def run(self, epochs: int) -> List[MetricsSnapshot]:
        """Advance the service by ``epochs`` epochs.

        Callable repeatedly: epoch numbering continues where the last
        call stopped, so ``run(3); run(3)`` replays the same traffic
        day as ``run(6)``.

        Returns
        -------
        list of MetricsSnapshot
            One snapshot per newly run epoch.
        """
        if epochs <= 0:
            raise ServiceError("epochs must be positive")
        fresh: List[MetricsSnapshot] = []
        for epoch in range(self._epochs_run, self._epochs_run + epochs):
            fresh.append(self.run_epoch(epoch))
        return fresh

    def run_epoch(self, epoch: int) -> MetricsSnapshot:
        """Run exactly one epoch (the next one due).

        The reusable epoch body the scale layer drives per cell:
        depart, arrive, admit, reschedule, measure-and-learn, snapshot,
        ``epoch_end``.  ``epoch`` must be the service's next epoch —
        epochs cannot be skipped or replayed.  When :attr:`cell_id` is
        set, every span recorded inside carries a ``cell`` attribute.
        """
        if epoch != self._epochs_run:
            raise ServiceError(
                f"epoch {epoch} is not next (service has run "
                f"{self._epochs_run})"
            )
        if self.cell_id is None:
            snapshot = self._epoch_body(epoch)
        else:
            with _obs.ambient(cell=self.cell_id):
                snapshot = self._epoch_body(epoch)
        self._epochs_run = epoch + 1
        if self.checkpoint_path is not None:
            self.checkpoint().save(self.checkpoint_path)
        return snapshot

    def _epoch_body(self, epoch: int) -> MetricsSnapshot:
        # The epoch span cross-links to the EventLog: log_seq_start
        # and log_seq_end bracket the sequence numbers this epoch
        # appended, so a trace row resolves to its event-log lines.
        with _obs.RECORDER.span(
            "service.epoch", epoch=epoch, log_seq_start=len(self.log)
        ) as espan:
            if self.provider is not None and self.provider.elastic:
                # Spanned (and run) only on elastic pools, so fixed-pool
                # days — including ``--provider static`` — trace
                # byte-identically to releases without the provider
                # layer.
                with _obs.RECORDER.span(
                    "provider.capacity",
                    epoch=epoch,
                    pool_size=len(self.provider.live_nodes()),
                ):
                    self._capacity(epoch)
            if self._pending_cancels:
                # Spanned only when requests are pending, so cancel-free
                # days trace byte-identically to releases without the
                # cancellation path.
                with _obs.RECORDER.span(
                    "service.cancel",
                    epoch=epoch,
                    requests=len(self._pending_cancels),
                ):
                    self._process_cancels(epoch)
            with _obs.RECORDER.span("service.depart", epoch=epoch):
                self._depart(epoch)
            with _obs.RECORDER.span("service.arrive", epoch=epoch):
                self._arrive(epoch)
            with _obs.RECORDER.span("service.admit", epoch=epoch):
                self._admit(epoch)
            with _obs.RECORDER.span("service.reschedule", epoch=epoch):
                self._reschedule(epoch)
            with _obs.RECORDER.span("service.measure", epoch=epoch):
                measured_total = self._measure_and_learn(epoch)
            snapshot = self._snapshot(epoch)
            self.log.append(
                "epoch_end",
                epoch,
                running=snapshot.running_jobs,
                queued=snapshot.queued_jobs,
                utilization=snapshot.utilization,
                measured_total=measured_total,
            )
            _obs.RECORDER.count("service.epochs")
            espan.set(
                running=snapshot.running_jobs,
                queued=snapshot.queued_jobs,
                measured_total=measured_total,
                log_seq_end=len(self.log),
            ).set_sim(measured_total)
        return snapshot

    # ------------------------------------------------------------------
    # Cross-cell transfer hooks (the scale layer's coordinator)
    # ------------------------------------------------------------------
    def transfer_out(self, job_id: str) -> Tuple[Job, int]:
        """Evict a tenant for a cross-cell move; returns ``(job, ends_at)``.

        No ``depart`` event is logged — the tenancy continues in the
        destination cell, which logs its eventual departure.  Only the
        :class:`~repro.scale.coordinator.GlobalCoordinator` should call
        this, paired with :meth:`admit_transfer` on the destination.
        """
        if job_id not in self._tenants:
            raise ServiceError(f"job {job_id!r} is not a tenant")
        job = self._tenants.pop(job_id)
        ends_at = self._ends_at.pop(job_id)
        self._placement = placement_without_job(self._placement, job_id)
        self._migrations_out += 1
        return job, ends_at

    def admit_transfer(self, job: Job, ends_at: int, decision) -> None:
        """Install a cross-cell transferee admitted by this cell.

        ``decision`` is an admitted
        :class:`~repro.service.admission.AdmissionDecision` produced by
        this service's own :attr:`admission` controller against its
        current placement.  The tenancy keeps its absolute ``ends_at``
        epoch, so a moved job departs on schedule in its new cell.
        """
        if not decision.admitted or decision.placement is None:
            raise ServiceError("admit_transfer needs an admitted decision")
        if job.job_id in self._tenants:
            raise ServiceError(f"job {job.job_id!r} is already a tenant")
        # Not counted in ``_admitted``: the job was admitted once, on
        # arrival; the move counts as a migration in.
        self._placement = decision.placement
        self._tenants[job.job_id] = job
        self._ends_at[job.job_id] = ends_at
        self._migrations_in += 1

    # ------------------------------------------------------------------
    # Crash safety
    # ------------------------------------------------------------------
    def checkpoint(self) -> "ServiceCheckpoint":
        """Capture the current epoch boundary's state."""
        from repro.service.checkpoint import ServiceCheckpoint

        return ServiceCheckpoint.capture(self)

    def restore(
        self,
        checkpoint: "ServiceCheckpoint",
        *,
        log: Optional[EventLog] = None,
    ) -> None:
        """Resume from a checkpoint captured on an identical service.

        ``log`` is the recovered event log (usually
        :meth:`EventLog.recover` of the persisted file), validated
        against the checkpoint's boundary and truncated to it (see
        :meth:`~repro.service.checkpoint.ServiceCheckpoint.resume_log`).
        Epoch numbering continues from the checkpoint's boundary, so
        the resumed run's log and snapshots come out byte-identical to
        an uninterrupted run's.
        """
        checkpoint.restore(self, log=log)
