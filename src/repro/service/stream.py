"""Seeded workload streams: deterministic job arrival generators.

The service simulates a traffic day as a sequence of epochs; this
module generates the per-epoch job arrivals.  Determinism is the load
bearing property — two runs with the same seed must see byte-identical
traffic — so each epoch draws from its own child generator keyed by
``stable_seed(seed, "stream", epoch)``: the arrivals of epoch *e* are a
pure function of the stream configuration and *e*, independent of how
many times (or in what order) other epochs were generated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

from repro._util import make_rng, stable_seed
from repro.errors import ServiceError
from repro.service.jobs import Job


@dataclass(frozen=True)
class StreamConfig:
    """Shape of the simulated traffic.

    Parameters
    ----------
    workloads:
        Catalog abbreviations jobs are drawn from (uniformly).
    arrival_rate:
        Mean arrivals per epoch (Poisson).
    unit_choices:
        Possible ``num_units`` values, drawn uniformly.
    duration_range:
        Inclusive (min, max) tenancy length in epochs.
    qos_fraction:
        Probability a job is mission-critical.
    qos_targets:
        Candidate QoS bounds for mission-critical jobs (uniform);
        defaults to the paper's 80%-of-solo bound.
    """

    workloads: Tuple[str, ...]
    arrival_rate: float = 1.0
    unit_choices: Tuple[int, ...] = (2, 4)
    duration_range: Tuple[int, int] = (2, 5)
    qos_fraction: float = 0.5
    qos_targets: Tuple[float, ...] = (1.25,)

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ServiceError("stream needs at least one workload")
        if not (math.isfinite(self.arrival_rate) and self.arrival_rate >= 0):
            raise ServiceError("arrival_rate must be non-negative and finite")
        if not self.unit_choices or any(u <= 0 for u in self.unit_choices):
            raise ServiceError("unit_choices must be positive")
        low, high = self.duration_range
        if not 0 < low <= high:
            raise ServiceError("duration_range must satisfy 0 < min <= max")
        if not 0.0 <= self.qos_fraction <= 1.0:
            raise ServiceError("qos_fraction must be in [0, 1]")
        if not self.qos_targets or not all(
            math.isfinite(t) and t >= 1.0 for t in self.qos_targets
        ):
            raise ServiceError("qos_targets must be finite and >= 1.0")


class WorkloadStream:
    """Deterministic arrival generator over a :class:`StreamConfig`.

    Parameters
    ----------
    config:
        Traffic shape.
    seed:
        Root seed; epoch ``e``'s arrivals derive from
        ``stable_seed(seed, "stream", e)`` only.
    """

    def __init__(self, config: StreamConfig, *, seed: int = 0) -> None:
        self.config = config
        self.seed = seed

    def arrivals(self, epoch: int) -> List[Job]:
        """The jobs arriving at ``epoch`` (stable across calls)."""
        if epoch < 0:
            raise ServiceError("epoch must be non-negative")
        cfg = self.config
        rng = make_rng(stable_seed(self.seed, "stream", epoch))
        count = int(rng.poisson(cfg.arrival_rate))
        jobs: List[Job] = []
        low, high = cfg.duration_range
        for index in range(count):
            workload = cfg.workloads[int(rng.integers(len(cfg.workloads)))]
            units = cfg.unit_choices[int(rng.integers(len(cfg.unit_choices)))]
            duration = int(rng.integers(low, high + 1))
            target = None
            if float(rng.random()) < cfg.qos_fraction:
                target = cfg.qos_targets[int(rng.integers(len(cfg.qos_targets)))]
            jobs.append(
                Job(
                    job_id=f"{workload}@e{epoch}.{index}",
                    workload=workload,
                    num_units=units,
                    duration_epochs=duration,
                    arrival_epoch=epoch,
                    qos_target=target,
                )
            )
        return jobs


@dataclass(frozen=True)
class FixedStream:
    """A hand-written arrival schedule (tests, replayed traces).

    Parameters
    ----------
    schedule:
        All jobs, each tagged with its :attr:`Job.arrival_epoch`.
    """

    schedule: Tuple[Job, ...] = field(default_factory=tuple)

    def arrivals(self, epoch: int) -> List[Job]:
        """Jobs whose arrival epoch is ``epoch``, in schedule order."""
        return [job for job in self.schedule if job.arrival_epoch == epoch]
