"""The headroom router: the scale layer's first (cheap) tier.

Arriving jobs are routed to the cell predicted to absorb them with the
most *QoS headroom*: the router probes a few candidate node
combinations per cell (the cell admission controller's own
:meth:`~repro.service.admission.AdmissionController.candidate_node_sets`
enumeration), scores them through the cell's own online model — as
one factored ``predict_placements_batch`` wave — and summarizes each
cell as the best candidate's worst margin over every mission-critical
bound involved.  Emptier, calmer cells score higher; the global tier
(:mod:`repro.scale.coordinator`) only intervenes later if a cell's
margin collapses anyway.

The router is intentionally much cheaper than admission proper: it
probes ``probe_candidates`` combinations (default 4) instead of
thousands, because it only needs a *ranking* of cells — the cell's own
admission controller still makes the binding yes/no decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ServiceError
from repro.obs import recorder as _obs
from repro.placement.objectives import QoSConstraint
from repro.service.jobs import Job

#: Reference bound used to score best-effort jobs (the paper's
#: 80%-of-solo bound).  Mission-critical jobs are scored against their
#: own target; best-effort jobs need *some* fixed yardstick so "how
#: much headroom would this cell have" is comparable across cells.
REFERENCE_BOUND = 1.25


@dataclass(frozen=True)
class CellScore:
    """One cell's predicted fit for one job.

    ``headroom`` is the best probed candidate's minimum margin
    (``bound - predicted``) over every mission-critical tenant's
    constraint plus the job's own (or the :data:`REFERENCE_BOUND` for
    best-effort jobs); positive means every bound is predicted to
    hold with room to spare.
    """

    cell_id: int
    headroom: float
    predicted_time: float
    free_slots: int


def free_slot_count(cell) -> int:
    """Unoccupied unit slots in a cell (capacity minus resident units).

    Capacity is the cell's *schedulable* node count, so a cell on an
    elastic provider advertises the headroom it can actually grant —
    draining and reclaimed nodes drop out of its routing weight the
    epoch they stop accepting work.  Fixed-pool cells count their full
    spec.
    """
    service = cell.service
    slots = (
        service.schedulable_node_count()
        * service.admission.unit_slots_per_node
    )
    occupied = sum(job.num_units for job in service.tenants)
    return slots - occupied


class HeadroomRouter:
    """Scores arriving jobs against per-cell predicted headroom.

    Parameters
    ----------
    probe_candidates:
        Node combinations probed per cell per job.  Combinations are
        enumerated in sorted node order (the admission controller's
        order), so routing is deterministic.
    """

    def __init__(self, *, probe_candidates: int = 4) -> None:
        if probe_candidates <= 0:
            raise ServiceError("probe_candidates must be positive")
        self.probe_candidates = probe_candidates

    # ------------------------------------------------------------------
    def score(self, cell, job: Job) -> Optional[CellScore]:
        """This cell's :class:`CellScore` for ``job``.

        ``None`` when the cell lacks the free slots to hold the job's
        units at all (capacity, not QoS).  Candidates come from the
        cell admission controller's own enumeration
        (:meth:`~repro.service.admission.AdmissionController.candidate_node_sets`)
        and are scored as one factored wave of the cell's
        :class:`~repro.core.online.OnlineModel`.
        """
        service = cell.service
        placement = service.placement
        admission = service.admission
        free = admission.free_nodes(placement)
        if len(free) < job.num_units:
            return None
        node_sets = admission.candidate_node_sets(
            placement, job, free, self.probe_candidates
        )
        if not node_sets:
            return None
        spec = job.instance_spec()
        instances = (
            (*placement.instances, spec) if placement is not None else (spec,)
        )
        column_of = {
            instance.instance_key: column
            for column, instance in enumerate(instances)
        }
        bounds = [
            (constraint.max_normalized_time,
             column_of[constraint.instance_key])
            for constraint in self._constraints(service.tenants, job)
        ]
        rows = service.model.predict_placements_batch(
            placement, spec, node_sets
        ).tolist()
        best: Optional[CellScore] = None
        slots = free_slot_count(cell)
        for row in rows:
            margin = min(bound - row[column] for bound, column in bounds)
            # Strict > keeps the first (sorted-order) candidate on ties.
            if best is None or margin > best.headroom:
                best = CellScore(
                    cell_id=cell.cell_id,
                    headroom=margin,
                    predicted_time=row[-1],
                    free_slots=slots,
                )
        return best

    def route_many(
        self,
        cells: Sequence,
        jobs: Sequence[Job],
        *,
        queue_room: Optional[Dict[int, int]] = None,
    ) -> Dict[str, int]:
        """Route one epoch's whole arrival wave: ``job_id -> cell id``.

        Maximum headroom wins.  When no cell can hold a job's units,
        the job goes to the cell with the most free slots (it will
        queue or bounce there — the router never silently drops work).
        A cell whose model lacks the job's workload never scores it;
        when no cell has it, the job takes that same fallback, and the
        cell's arrival step rejects it as ``unprofiled``.
        Picking each job's best cell alone would send the whole wave to
        the same cell — cell placements do not change while the wave is
        being routed, so neither do their scores.  This method adds the
        intake bookkeeping that makes a wave spread:

        * ``queue_room`` caps how many wave jobs a cell may take (the
          service passes each cell's remaining queue depth); cells at
          their cap drop out of the eligible pool, and when every cell
          is at cap the full pool is used (the job will bounce at the
          chosen cell — the router never silently drops work);
        * among eligible cells, maximum headroom still wins, but ties
          break toward the cell that has taken the *fewest* wave jobs
          so far (then the lowest cell id), so identical empty cells
          share the wave instead of queuing it all in cell 0.

        Scores are computed once per (cell, job shape): two jobs with
        the same workload, unit count, and QoS target see identical
        headroom against an unchanged placement, so an epoch's wave
        costs one scoring pass per distinct job type, not per job.
        """
        assignments: Dict[str, int] = {}
        taken = {cell.cell_id: 0 for cell in cells}
        scores: Dict[tuple, Optional[CellScore]] = {}
        for job in jobs:
            eligible = [
                cell
                for cell in cells
                if queue_room is None
                or taken[cell.cell_id] < queue_room.get(cell.cell_id, 0)
            ] or list(cells)
            best: Optional[CellScore] = None
            for cell in eligible:
                key = (cell.cell_id, job.workload, job.num_units, job.qos_target)
                if key not in scores:
                    scores[key] = (
                        self.score(cell, job)
                        if job.workload in cell.service.model.workloads
                        else None
                    )
                score = scores[key]
                if score is None:
                    continue
                if best is None or (
                    score.headroom,
                    -taken[score.cell_id],
                    -score.cell_id,
                ) > (best.headroom, -taken[best.cell_id], -best.cell_id):
                    best = score
            if best is not None:
                _obs.RECORDER.count("scale.router.routed")
                chosen = best.cell_id
            else:
                unprofiled = all(
                    job.workload not in cell.service.model.workloads
                    for cell in eligible
                )
                _obs.RECORDER.count(
                    "scale.router.unprofiled" if unprofiled
                    else "scale.router.no_capacity"
                )
                chosen = max(
                    eligible,
                    key=lambda cell: (
                        free_slot_count(cell),
                        -taken[cell.cell_id],
                        -cell.cell_id,
                    ),
                ).cell_id
            assignments[job.job_id] = chosen
            taken[chosen] += 1
        return assignments

    # ------------------------------------------------------------------
    @staticmethod
    def _constraints(tenants: Sequence[Job], job: Job) -> List[QoSConstraint]:
        constraints = [
            tenant.qos_constraint()
            for tenant in tenants
            if tenant.mission_critical
        ]
        constraints.append(
            job.qos_constraint()
            if job.mission_critical
            else QoSConstraint(
                instance_key=job.job_id, max_normalized_time=REFERENCE_BOUND
            )
        )
        return [c for c in constraints if c is not None]
