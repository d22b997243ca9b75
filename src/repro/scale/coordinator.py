"""The global QoS coordinator: the scale layer's second tier.

Cells run autonomously; the coordinator's only job is to notice when a
cell's predicted QoS margin *collapses* — its worst mission-critical
tenant is predicted outside its bound (or within
``margin_threshold`` of it) — and move exactly that tenant to a cell
that can absorb it.  Cross-cell migration is expensive (the tenancy's
state crosses a cell boundary), so it is gated the same way
:class:`~repro.service.loop.ConsolidationService` gates intra-cell
rescheduling, with the source cell's own
:attr:`~repro.service.loop.ServiceConfig.migration_cost`: a move
repairing a predicted QoS violation is always taken, anything else
must buy back ``migration_cost`` per moved unit in predicted total
time across both cells.

Everything here is deterministic: collapsed cells are visited in
(worst margin, cell id) order, the victim is the worst-margin tenant
(ties by job id), and destination cells are tried in descending router
headroom (ties toward the lower cell id).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ServiceError
from repro.obs import recorder as _obs
from repro.placement.objectives import (
    predict_placement,
    weighted_total_time,
)
from repro.service.admission import placement_without_job
from repro.service.events import EventLog


@dataclass(frozen=True)
class CoordinatorConfig:
    """Operating knobs of the global coordinator.

    Parameters
    ----------
    margin_threshold:
        A cell is *collapsed* when its worst mission-critical margin
        (``bound - predicted``) falls below this.  The default 0.0
        means "a tenant is predicted to violate its bound"; small
        positive values intervene early.
    max_migrations_per_epoch:
        Cross-cell moves allowed per epoch, bounding coordinator churn.

    A move's cost is the source cell's
    :attr:`~repro.service.loop.ServiceConfig.migration_cost` per moved
    VM unit, the gate that cell's own rescheduling uses.
    """

    margin_threshold: float = 0.0
    max_migrations_per_epoch: int = 2

    def __post_init__(self) -> None:
        if self.max_migrations_per_epoch < 0:
            raise ServiceError("max_migrations_per_epoch must be non-negative")


class GlobalCoordinator:
    """Watches per-cell QoS margins; migrates only on collapse."""

    def __init__(self, config: Optional[CoordinatorConfig] = None) -> None:
        self.config = config or CoordinatorConfig()

    # ------------------------------------------------------------------
    def rebalance(
        self,
        cells: Sequence,
        epoch: int,
        log: EventLog,
        router,
    ) -> List[Dict[str, object]]:
        """One epoch's worth of cross-cell intervention.

        Returns one record per executed move (``from_cell``,
        ``to_cell``, ``job``, ``units``); each move is also appended to
        ``log`` as a ``cell_migrate`` event.
        """
        moves: List[Dict[str, object]] = []
        margins = {cell.cell_id: cell.service.qos_margin() for cell in cells}
        collapsed = sorted(
            (
                cell
                for cell in cells
                if margins[cell.cell_id] is not None
                and margins[cell.cell_id] < self.config.margin_threshold
            ),
            key=lambda cell: (margins[cell.cell_id], cell.cell_id),
        )
        for source in collapsed:
            if len(moves) >= self.config.max_migrations_per_epoch:
                break
            move = self._relieve(source, cells, epoch, log, router)
            if move is not None:
                moves.append(move)
        return moves

    # ------------------------------------------------------------------
    def _relieve(
        self, source, cells: Sequence, epoch: int, log: EventLog, router
    ) -> Optional[Dict[str, object]]:
        """Try to move the source cell's worst tenant somewhere safer."""
        service = source.service
        placement = service.placement
        if placement is None:
            return None
        predictions = predict_placement(service.model, placement)
        critical = [job for job in service.tenants if job.mission_critical]
        if not critical:
            return None
        victim = min(
            critical,
            key=lambda job: (job.qos_target - predictions[job.job_id], job.job_id),
        )
        margin = victim.qos_target - predictions[victim.job_id]

        # Source-side accounting for the gate, computed without
        # mutating anything: the placement with the victim evicted.
        constraints = [
            job.qos_constraint() for job in critical if job is not victim
        ]
        violation_before = sum(
            c.violation(predictions)
            for c in (constraints + [victim.qos_constraint()])
        )
        total_before = weighted_total_time(predictions, placement)
        after = placement_without_job(placement, victim.job_id)
        if after is None:
            after_predictions: Dict[str, float] = {}
            total_after = 0.0
        else:
            after_predictions = predict_placement(service.model, after)
            total_after = weighted_total_time(after_predictions, after)
        violation_after = sum(
            c.violation(after_predictions) for c in constraints
        )

        # Destinations in descending predicted headroom; the winning
        # cell's own admission controller makes the binding check.
        scored = []
        for cell in cells:
            if cell.cell_id == source.cell_id:
                continue
            score = router.score(cell, victim)
            if score is not None:
                scored.append((score, cell))
        scored.sort(key=lambda item: (-item[0].headroom, item[1].cell_id))
        for score, target in scored:
            decision = target.service.admission.try_admit(
                target.service.placement, target.service.tenants, victim
            )
            if not decision.admitted:
                continue
            assert decision.predictions is not None
            # Same gate as intra-cell rescheduling: repairing a
            # predicted violation is always worth it, otherwise the
            # move must buy back migration_cost per moved unit across
            # both cells.  Admission guarantees the destination stays
            # violation-free, so the source side is the whole QoS delta.
            repairs_qos = violation_after < violation_before
            target_before = (
                weighted_total_time(
                    predict_placement(
                        target.service.model, target.service.placement
                    ),
                    target.service.placement,
                )
                if target.service.placement is not None
                else 0.0
            )
            target_after = weighted_total_time(
                decision.predictions, decision.placement
            )
            gain = (total_before - total_after) + (target_before - target_after)
            cost = service.config.migration_cost * victim.num_units
            if not (repairs_qos or gain > cost):
                continue
            job, ends_at = service.transfer_out(victim.job_id)
            target.service.admit_transfer(job, ends_at, decision)
            _obs.RECORDER.count("scale.cell_migrations")
            log.append(
                "cell_migrate",
                epoch,
                job=job.job_id,
                workload=job.workload,
                from_cell=source.cell_id,
                to_cell=target.cell_id,
                units=job.num_units,
                margin=margin,
                predicted=decision.predictions[job.job_id],
                repairs_qos=repairs_qos,
            )
            return {
                "job": job.job_id,
                "from_cell": source.cell_id,
                "to_cell": target.cell_id,
                "units": job.num_units,
            }
        return None
