"""Jobs: the unit of tenancy in the consolidation service.

The offline reproduction places a *fixed* application mix (Section 5's
four-instance mixes).  The service layer replaces that with a stream of
:class:`Job` tenancies: an application instance that arrives at some
epoch, runs for a bounded number of epochs, and optionally carries a
per-job QoS target (the paper's "mission-critical" bound of Section
5.2, but chosen per tenant rather than per mix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ServiceError
from repro.placement.assignment import InstanceSpec
from repro.placement.objectives import QoSConstraint


@dataclass(frozen=True)
class Job:
    """One tenancy request flowing through the service.

    Parameters
    ----------
    job_id:
        Unique key; doubles as the placement instance key.
    workload:
        Catalog abbreviation (must exist in the serving model).
    num_units:
        VM units the job deploys (4 in the paper's placements).
    duration_epochs:
        Epochs the job stays resident once admitted.
    arrival_epoch:
        Epoch the job entered the system.
    qos_target:
        Optional largest admissible normalized time, finite and at
        least 1.0 (e.g. the paper's ``1 / 0.8 = 1.25``); ``None`` marks
        a best-effort tenant.
    weight:
        Contribution to weighted placement objectives; finite and
        positive.
    """

    job_id: str
    workload: str
    num_units: int = 4
    duration_epochs: int = 1
    arrival_epoch: int = 0
    qos_target: Optional[float] = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.num_units <= 0:
            raise ServiceError("num_units must be positive")
        if self.duration_epochs <= 0:
            raise ServiceError("duration_epochs must be positive")
        if self.arrival_epoch < 0:
            raise ServiceError("arrival_epoch must be non-negative")
        if not (math.isfinite(self.weight) and self.weight > 0.0):
            raise ServiceError(
                f"weight must be finite and positive, got {self.weight!r}"
            )
        if self.qos_target is not None and not (
            math.isfinite(self.qos_target) and self.qos_target >= 1.0
        ):
            raise ServiceError(
                f"qos_target must be finite and at least 1.0 (a bound below "
                f"1.0 is unsatisfiable even solo), got {self.qos_target!r}"
            )

    @property
    def mission_critical(self) -> bool:
        """Whether this job carries a QoS bound."""
        return self.qos_target is not None

    def instance_spec(self) -> InstanceSpec:
        """The placement-layer view of this job."""
        return InstanceSpec(
            instance_key=self.job_id,
            workload=self.workload,
            num_units=self.num_units,
            weight=self.weight,
        )

    def qos_constraint(self) -> Optional[QoSConstraint]:
        """The job's QoS constraint, or ``None`` for best-effort jobs."""
        if self.qos_target is None:
            return None
        return QoSConstraint(
            instance_key=self.job_id, max_normalized_time=self.qos_target
        )
