"""QoS admission control (the service's gatekeeper).

Admission answers one question: *can this job be placed right now
without breaking anybody's QoS bound?*  The controller never migrates
existing tenants — that is the rescheduler's prerogative — so the
decision reduces to choosing nodes for the new job's units among the
free unit slots and predicting the resulting normalized times with the
interference model (:func:`~repro.placement.objectives.predict_placement`
over the :class:`~repro.core.online.OnlineModel`).  A whole wave of
candidate node sets is scored in factored form
(:meth:`~repro.core.model.InterferenceModel.predict_placements_batch`):
an arriving job only changes the predictions of the tenants sharing
one of its nodes, so only those are re-predicted per candidate, and
only the winning candidate is built as a :class:`Placement`.

A job is admitted only if some candidate keeps **every** co-resident
tenant inside its QoS bound *and* satisfies the job's own bound; among
feasible candidates the one minimizing total weighted predicted time
wins (ties broken by node order, so decisions are deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.errors import PlacementError, ServiceError
from repro.faults.degradation import (
    conservative_prediction,
    supports_degradation,
)
from repro.obs import recorder as _obs
from repro.placement.assignment import Placement
from repro.placement.objectives import (
    QoSConstraint,
    predict_placement_scalar,
    weighted_total_time,
)
from repro.providers.static import StaticProvider
from repro.service.jobs import Job

#: Admission decision reasons.
ADMITTED = "admitted"
NO_CAPACITY = "no-capacity"
NO_DURABLE_CAPACITY = "no-durable-capacity"
QOS_INFEASIBLE = "qos-infeasible"


def placement_with_job(
    placement: Optional[Placement],
    cluster_spec: ClusterSpec,
    job: Job,
    nodes: Sequence[int],
    *,
    unit_slots_per_node: int = 2,
) -> Placement:
    """The current placement extended with ``job`` on ``nodes``.

    Raises
    ------
    PlacementError
        If the extension violates capacity or co-location constraints.
    """
    instances = list(placement.instances) if placement is not None else []
    assignment = _assignment(placement) if placement is not None else {}
    if job.job_id in assignment:
        raise ServiceError(f"job {job.job_id!r} is already placed")
    instances.append(job.instance_spec())
    assignment[job.job_id] = tuple(int(n) for n in nodes)
    return Placement(
        cluster_spec,
        instances,
        assignment,
        unit_slots_per_node=(
            placement.unit_slots_per_node
            if placement is not None
            else unit_slots_per_node
        ),
    )


def placement_without_job(placement: Placement, job_id: str) -> Optional[Placement]:
    """The placement with ``job_id`` evicted (``None`` if it empties)."""
    remaining = [
        spec for spec in placement.instances if spec.instance_key != job_id
    ]
    if len(remaining) == len(placement.instances):
        raise ServiceError(f"job {job_id!r} is not placed")
    if not remaining:
        return None
    assignment = {
        spec.instance_key: placement.nodes_of(spec.instance_key)
        for spec in remaining
    }
    return Placement(
        placement.cluster_spec,
        remaining,
        assignment,
        unit_slots_per_node=placement.unit_slots_per_node,
    )


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission attempt.

    ``placement``/``predictions`` are populated only when admitted;
    ``candidates_evaluated`` counts the valid candidate node sets the
    controller predicted before deciding (its work measure).
    """

    job: Job
    admitted: bool
    reason: str
    placement: Optional[Placement] = None
    predictions: Optional[Dict[str, float]] = None
    candidates_evaluated: int = 0


class AdmissionController:
    """Predictive admission control over free unit slots.

    Parameters
    ----------
    model:
        Prediction model exposing ``predict_under_corunners`` (the
        static :class:`~repro.core.model.InterferenceModel` or the
        learning :class:`~repro.core.online.OnlineModel`).
    cluster_spec:
        Cluster shape.
    unit_slots_per_node:
        Units per host (2 on the paper's testbed); used when admitting
        into an empty cluster.
    max_candidates:
        Cap on node combinations evaluated per decision, so admission
        latency stays bounded on large clusters.  Combinations are
        enumerated in sorted node order, so the cap cuts the tail
        deterministically.
    degraded_workloads:
        Live set of workloads whose profiles rest on measurement
        fallbacks (shared with
        :attr:`~repro.sim.runner.ClusterRunner.faulted_workloads`).
        Predictions for these fall back to the conservative ALL-max
        mapping (:func:`repro.faults.degradation.conservative_prediction`),
        so a workload the profiler could not measure reliably is never
        the reason a QoS bound is optimistically waved through.
    capacity:
        The :class:`~repro.providers.base.CapacityProvider` whose pool
        admission fills; ``None`` (the default) builds a fixed
        :class:`~repro.providers.static.StaticProvider` over
        ``cluster_spec``.  Only the provider's schedulable (live,
        non-draining) nodes count as free, and mission-critical jobs
        are additionally restricted to durable nodes — a tenant with a
        QoS bound can never land on spot capacity that might be
        preempted out from under it.  A fixed pool is all durable and
        always schedulable, so neither rule ever narrows it.
    """

    def __init__(
        self,
        model,
        cluster_spec: ClusterSpec,
        *,
        unit_slots_per_node: int = 2,
        max_candidates: int = 4096,
        degraded_workloads: Optional[Set[str]] = None,
        capacity=None,
    ) -> None:
        if max_candidates <= 0:
            raise ServiceError("max_candidates must be positive")
        self.model = model
        self.cluster_spec = cluster_spec
        self.unit_slots_per_node = unit_slots_per_node
        self.max_candidates = max_candidates
        self.degraded_workloads = (
            degraded_workloads if degraded_workloads is not None else set()
        )
        self.capacity = (
            capacity if capacity is not None
            else StaticProvider(cluster_spec.num_nodes)
        )

    def _predict(self, candidate: Placement) -> Dict[str, float]:
        """Per-instance predictions, conservatively for degraded workloads.

        The scalar reference path: :meth:`try_admit` scores whole
        candidate waves through the vectorized batch instead whenever
        the model supports it, with bit-identical results.
        """
        predictions = predict_placement_scalar(self.model, candidate)
        if not self.degraded_workloads or not supports_degradation(self.model):
            return predictions
        for spec in candidate.instances:
            if spec.workload not in self.degraded_workloads:
                continue
            key = spec.instance_key
            conservative = conservative_prediction(
                self.model,
                spec.workload,
                candidate.spanned_nodes(key),
                candidate.co_runner_workloads(key),
            )
            # Degradation only ever raises a prediction: the model's
            # own estimate still applies when it is already worse.
            if conservative > predictions[key]:
                predictions[key] = conservative
                _obs.RECORDER.count("fault.degraded_prediction")
        return predictions

    # ------------------------------------------------------------------
    def free_nodes(self, placement: Optional[Placement]) -> List[int]:
        """Node ids with at least one free unit slot, in sorted order.

        Public because the scale layer's
        :class:`~repro.scale.router.HeadroomRouter` probes candidate
        placements over the same free-slot inventory admission uses.
        """
        load = _unit_load(placement)
        slots = (
            placement.unit_slots_per_node
            if placement is not None
            else self.unit_slots_per_node
        )
        return [
            node for node in self.capacity.schedulable_nodes()
            if load.get(node, 0) < slots
        ]

    def candidate_node_sets(
        self,
        placement: Optional[Placement],
        job: Job,
        free: Sequence[int],
        limit: int,
    ) -> List[Tuple[int, ...]]:
        """Node sets for ``job``'s units that make a valid placement.

        Enumerates ``combinations(free, job.num_units)`` in order and
        stops after ``limit`` of them, valid or not, so the cap cuts
        the tail deterministically.  A node set is kept exactly when
        :func:`placement_with_job` would accept it: the base validates
        once against this controller's cluster spec (if it does not, no
        node set is valid), and then each node must be in range, have a
        free unit slot, and stay within the distinct-workload limit.
        Shared by :meth:`try_admit` and the scale layer's router.

        Raises
        ------
        ServiceError
            If ``job`` is already placed.
        """
        slots = self.unit_slots_per_node
        if placement is not None:
            if any(
                spec.instance_key == job.job_id
                for spec in placement.instances
            ):
                raise ServiceError(f"job {job.job_id!r} is already placed")
            try:
                Placement(
                    self.cluster_spec,
                    placement.instances,
                    _assignment(placement),
                    unit_slots_per_node=placement.unit_slots_per_node,
                )
            except PlacementError:
                return []
            slots = placement.unit_slots_per_node
        # A valid placement holds at most one unit of an instance per
        # node, so a node's unit load is also its distinct-workload
        # count: the job fits wherever both stay within their limits.
        room = min(slots, self.cluster_spec.max_workloads_per_node)
        load = _unit_load(placement)
        fits = {
            node
            for node in free
            if 0 <= node < self.cluster_spec.num_nodes
            and load.get(node, 0) < room
        }
        node_sets = islice(combinations(free, job.num_units), limit)
        if len(fits) == len(free):
            return list(node_sets)
        return [
            nodes
            for nodes in node_sets
            if len(set(nodes)) == len(nodes)
            and all(node in fits for node in nodes)
        ]

    def candidate(
        self, placement: Optional[Placement], job: Job, nodes: Sequence[int]
    ) -> Placement:
        """The placement with ``job`` on ``nodes`` (this controller's spec)."""
        return placement_with_job(
            placement,
            self.cluster_spec,
            job,
            nodes,
            unit_slots_per_node=self.unit_slots_per_node,
        )

    @staticmethod
    def _constraints(
        tenants: Sequence[Job], job: Job
    ) -> List[QoSConstraint]:
        constraints = [
            tenant.qos_constraint()
            for tenant in tenants
            if tenant.mission_critical
        ]
        if job.mission_critical:
            constraints.append(job.qos_constraint())
        return [c for c in constraints if c is not None]

    # ------------------------------------------------------------------
    def try_admit(
        self,
        placement: Optional[Placement],
        tenants: Sequence[Job],
        job: Job,
    ) -> AdmissionDecision:
        """Decide whether ``job`` can join the current placement.

        Parameters
        ----------
        placement:
            Where the tenants currently sit (``None`` for an empty
            cluster).
        tenants:
            The resident jobs, in placement order.
        job:
            The candidate.
        """
        free = self.free_nodes(placement)
        if len(free) < job.num_units:
            return AdmissionDecision(job, False, NO_CAPACITY)
        if job.mission_critical:
            durable = set(self.capacity.durable_nodes())
            free = [node for node in free if node in durable]
            if len(free) < job.num_units:
                return AdmissionDecision(job, False, NO_DURABLE_CAPACITY)
        node_sets = self.candidate_node_sets(
            placement, job, free, self.max_candidates
        )
        evaluated = len(node_sets)
        if not node_sets:
            return AdmissionDecision(
                job, False, NO_CAPACITY, candidates_evaluated=0
            )
        constraints = self._constraints(tenants, job)
        if hasattr(self.model, "predict_placements_batch"):
            best = self._select_batch(placement, job, node_sets, constraints)
        else:
            best = self._select_scalar(
                [self.candidate(placement, job, nodes) for nodes in node_sets],
                constraints,
            )
        if best is None:
            return AdmissionDecision(
                job, False, QOS_INFEASIBLE, candidates_evaluated=evaluated
            )
        chosen, predictions = best
        return AdmissionDecision(
            job,
            True,
            ADMITTED,
            placement=chosen,
            predictions=predictions,
            candidates_evaluated=evaluated,
        )

    def decision_still_valid(self, decision: AdmissionDecision) -> bool:
        """Whether an admitted decision's nodes are still schedulable.

        An elastic pool can lose a node between the admission
        prediction and the commit (a preemption reclaim racing the
        admit phase).  The service checks here before binding the job;
        a stale decision is requeued rather than raising deep inside
        the epoch body.  Always ``True`` on a fixed pool, which cannot
        vanish.
        """
        if not decision.admitted:
            return True
        nodes = set(
            decision.placement.nodes_of(decision.job.job_id)
        )
        if not nodes <= set(self.capacity.schedulable_nodes()):
            return False
        if decision.job.mission_critical:
            return nodes <= set(self.capacity.durable_nodes())
        return True

    def _select_scalar(
        self,
        candidates: Sequence[Placement],
        constraints: Sequence[QoSConstraint],
    ) -> Optional[Tuple[Placement, Dict[str, float]]]:
        """Reference selection: predict candidates one at a time."""
        best: Optional[Tuple[float, Placement, Dict[str, float]]] = None
        for candidate in candidates:
            predictions = self._predict(candidate)
            if any(not c.satisfied_by(predictions) for c in constraints):
                continue
            total = weighted_total_time(predictions, candidate)
            if best is None or total < best[0]:
                best = (total, candidate, predictions)
        if best is None:
            return None
        return best[1], best[2]

    def _select_batch(
        self,
        placement: Optional[Placement],
        job: Job,
        node_sets: Sequence[Tuple[int, ...]],
        constraints: Sequence[QoSConstraint],
    ) -> Optional[Tuple[Placement, Dict[str, float]]]:
        """Score the whole candidate wave as one vectorized batch.

        Bit-identical to :meth:`_select_scalar` over the materialised
        candidates: the model scores the wave in factored form (see
        :meth:`~repro.core.model.InterferenceModel.predict_placements_batch`),
        applying the degraded-workload conservative ALL-max override
        with the same replacement rule, and the winner is the *first*
        feasible candidate attaining the minimum total — the same
        deterministic sorted-enumeration tie-break as the scalar
        ``total < best`` scan.  Only the winner becomes a
        :class:`Placement`.
        """
        spec = job.instance_spec()
        instances = (
            (*placement.instances, spec) if placement is not None else (spec,)
        )
        predictions = self.model.predict_placements_batch(
            placement,
            spec,
            node_sets,
            degraded=(
                self.degraded_workloads
                if supports_degradation(self.model)
                else frozenset()
            ),
        )
        keys = [instance.instance_key for instance in instances]
        feasible = np.ones(len(node_sets), dtype=bool)
        for constraint in constraints:
            column = keys.index(constraint.instance_key)
            feasible &= (
                predictions[:, column] <= constraint.max_normalized_time
            )
        chosen = np.flatnonzero(feasible)
        if chosen.size == 0:
            return None
        # Same summation order as ``weighted_total_time``: one
        # instance-weight term at a time, accumulated left to right.
        totals = np.zeros(len(node_sets), dtype=float)
        for column, instance in enumerate(instances):
            totals = totals + instance.weight * predictions[:, column]
        winner = int(chosen[np.argmin(totals[chosen])])
        return self.candidate(placement, job, node_sets[winner]), {
            key: float(value)
            for key, value in zip(keys, predictions[winner])
        }


def _assignment(placement: Placement) -> Dict[str, Tuple[int, ...]]:
    """``instance_key -> unit nodes`` in instance order."""
    return {
        spec.instance_key: placement.nodes_of(spec.instance_key)
        for spec in placement.instances
    }


def _unit_load(placement: Optional[Placement]) -> Dict[int, int]:
    """Resident units per node (empty for an empty cluster)."""
    load: Dict[int, int] = {}
    if placement is not None:
        for spec in placement.instances:
            for node in placement.nodes_of(spec.instance_key):
                load[node] = load.get(node, 0) + 1
    return load
