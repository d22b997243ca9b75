"""Crash-safe checkpoints: one format for flat, sharded and daemon days.

A :class:`ServiceCheckpoint` captures one epoch boundary of a day:
the day's seed, completed epochs, event-log length and emitted
snapshots, plus one :class:`CellState` per cell of the service that
ran it.  A flat :class:`~repro.service.loop.ConsolidationService` (and
every daemon execution) is one cell; a
:class:`~repro.scale.service.ShardedConsolidationService` has one per
cell.  A cell's state is everything about its flat service that
cannot be re-derived from the construction seed: the resident tenants
and their remaining tenancies, the admission queue, the current
placement, the operational counters (cross-cell migrations included),
the online model's learned corrections, the runner's degraded-workload
set, pending cancel requests, and the elastic provider's inventory.

Everything else — the workload stream, the per-epoch search seeds, the
measurement repetitions — derives from ``stable_seed`` labels, so a
day restored from a checkpoint and run forward produces the **same
bytes** (event log and snapshots) as one that was never interrupted.
That identity is the recovery contract ``repro serve --resume`` and
``tests/service/test_recovery.py`` enforce.

Checkpoints are written atomically (temp file + fsync + rename), so a
crash during checkpointing leaves the previous checkpoint intact.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro._util import atomic_write_text
from repro.errors import ServiceError
from repro.placement.assignment import Placement
from repro.service.events import EventLog
from repro.service.jobs import Job
from repro.service.telemetry import MetricsSnapshot

#: Checkpoint format version; bumped on incompatible layout changes.
#: Files of any other version are rejected, not migrated.
CHECKPOINT_VERSION = 2

#: Per-cell operational counters, captured verbatim from the service.
_COUNTER_FIELDS = (
    "admitted",
    "rejected",
    "completed",
    "cancelled",
    "migration_epochs",
    "migrated_units",
    "qos_checks",
    "qos_violations",
    "preempted",
    "requeued",
    "migrations_in",
    "migrations_out",
)


def _job_from_dict(entry: Dict[str, object]) -> Job:
    try:
        return Job(
            job_id=str(entry["job_id"]),
            workload=str(entry["workload"]),
            num_units=int(entry["num_units"]),
            duration_epochs=int(entry["duration_epochs"]),
            arrival_epoch=int(entry["arrival_epoch"]),
            qos_target=(
                None if entry["qos_target"] is None
                else float(entry["qos_target"])
            ),
            weight=float(entry["weight"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed job entry: {entry!r}") from exc


@dataclass(frozen=True)
class CellState:
    """One flat service's non-derivable state: one cell of a checkpoint."""

    counters: Dict[str, int]
    tenants: List[Tuple[Job, int]]
    queue: List[Tuple[Job, int]]
    assignment: Optional[Dict[str, Tuple[int, ...]]]
    unit_slots_per_node: int
    model_state: Dict[str, Dict[str, object]]
    faulted_workloads: Tuple[str, ...]
    pending_cancels: Tuple[str, ...] = ()
    #: Serialized provider inventory (``None`` for fixed-pool
    #: services).  The key is omitted from :meth:`to_dict` when
    #: ``None``.
    provider_state: Optional[Dict[str, object]] = None

    @classmethod
    def capture(cls, service) -> "CellState":
        """Snapshot one flat service at an epoch boundary."""
        placement = service.placement
        assignment = None
        if placement is not None:
            assignment = {
                spec.instance_key: placement.nodes_of(spec.instance_key)
                for spec in placement.instances
            }
        return cls(
            counters={
                name: getattr(service, f"_{name}") for name in _COUNTER_FIELDS
            },
            tenants=[
                (job, service._ends_at[job_id])
                for job_id, job in service._tenants.items()
            ],
            queue=[(entry.job, entry.failures) for entry in service._queue],
            assignment=assignment,
            unit_slots_per_node=(
                placement.unit_slots_per_node
                if placement is not None
                else service.admission.unit_slots_per_node
            ),
            model_state=service.model.state_dict(),
            faulted_workloads=tuple(sorted(service.runner.faulted_workloads)),
            pending_cancels=tuple(service._pending_cancels),
            provider_state=(
                service.provider.state_dict()
                if service.provider is not None and service.provider.elastic
                else None
            ),
        )

    def restore(self, service) -> None:
        """Install this state into one freshly constructed flat service."""
        for name in _COUNTER_FIELDS:
            setattr(service, f"_{name}", int(self.counters[name]))
        service._tenants = {job.job_id: job for job, _ in self.tenants}
        service._ends_at = {job.job_id: ends for job, ends in self.tenants}
        from repro.service.loop import _QueuedJob

        service._queue = [
            _QueuedJob(job, failures) for job, failures in self.queue
        ]
        if self.assignment is None:
            service._placement = None
        else:
            instances = [job.instance_spec() for job, _ in self.tenants]
            service._placement = Placement(
                service.runner.spec,
                instances,
                {key: tuple(nodes) for key, nodes in self.assignment.items()},
                unit_slots_per_node=self.unit_slots_per_node,
            )
        service._pending_cancels = list(self.pending_cancels)
        service.model.load_state(self.model_state)
        service.runner.faulted_workloads.update(self.faulted_workloads)
        if self.provider_state is not None:
            if service.provider is None:
                raise ServiceError(
                    "checkpoint carries provider state but the service "
                    "has no provider; rebuild it with the original "
                    "--provider configuration"
                )
            service.provider.load_state(self.provider_state)
        elif service.provider is not None and service.provider.elastic:
            raise ServiceError(
                "service has an elastic provider but the checkpoint "
                "carries no provider state; it was captured on a fixed "
                "pool"
            )

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-able rendering."""
        entry: Dict[str, object] = {
            "counters": dict(self.counters),
            "tenants": [
                {"job": asdict(job), "ends_at": ends}
                for job, ends in self.tenants
            ],
            "queue": [
                {"job": asdict(job), "failures": failures}
                for job, failures in self.queue
            ],
            "assignment": (
                None if self.assignment is None
                else {
                    key: list(nodes)
                    for key, nodes in self.assignment.items()
                }
            ),
            "unit_slots_per_node": self.unit_slots_per_node,
            "model_state": self.model_state,
            "faulted_workloads": list(self.faulted_workloads),
            "pending_cancels": list(self.pending_cancels),
        }
        if self.provider_state is not None:
            entry["provider_state"] = dict(self.provider_state)
        return entry

    @classmethod
    def from_dict(cls, entry: Dict[str, object]) -> "CellState":
        """Rebuild a cell from its :meth:`to_dict` form."""
        assignment = entry["assignment"]
        return cls(
            counters={
                name: int(entry["counters"][name]) for name in _COUNTER_FIELDS
            },
            tenants=[
                (_job_from_dict(item["job"]), int(item["ends_at"]))
                for item in entry["tenants"]
            ],
            queue=[
                (_job_from_dict(item["job"]), int(item["failures"]))
                for item in entry["queue"]
            ],
            assignment=(
                None if assignment is None
                else {
                    str(key): tuple(int(n) for n in nodes)
                    for key, nodes in assignment.items()
                }
            ),
            unit_slots_per_node=int(entry["unit_slots_per_node"]),
            model_state={
                str(workload): dict(state)
                for workload, state in entry["model_state"].items()
            },
            faulted_workloads=tuple(
                str(w) for w in entry["faulted_workloads"]
            ),
            pending_cancels=tuple(str(j) for j in entry["pending_cancels"]),
            provider_state=(
                None if entry.get("provider_state") is None
                else dict(entry["provider_state"])
            ),
        )


@dataclass(frozen=True)
class ServiceCheckpoint:
    """One epoch boundary of a day, across every cell of its service."""

    seed: int
    epochs_run: int
    log_length: int
    snapshots: List[MetricsSnapshot]
    cells: Tuple[CellState, ...]
    version: int = CHECKPOINT_VERSION

    @property
    def epoch(self) -> int:
        """Epochs the captured day had completed."""
        return self.epochs_run

    @property
    def tenants(self) -> List[Tuple[Job, int]]:
        """Resident ``(job, ends_at)`` pairs, cell by cell."""
        return [pair for cell in self.cells for pair in cell.tenants]

    @property
    def queue(self) -> List[Tuple[Job, int]]:
        """Queued ``(job, failures)`` pairs, cell by cell."""
        return [pair for cell in self.cells for pair in cell.queue]

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, service) -> "ServiceCheckpoint":
        """Snapshot a flat or sharded service at an epoch boundary."""
        return cls(
            seed=service.seed,
            epochs_run=service.epochs_run,
            log_length=len(service.log),
            snapshots=list(service.snapshots),
            cells=tuple(
                CellState.capture(flat) for flat in service.cell_services
            ),
        )

    def restore(self, service, *, log: Optional[EventLog] = None) -> None:
        """Install this boundary into a freshly constructed service.

        The flat or sharded ``service`` must have been built from the
        same seed, stream, config, topology and profiled model as the
        captured one; only then does the resumed day replay the
        uninterrupted one byte for byte.  Its event log becomes
        :meth:`resume_log` of ``log``.
        """
        if service.epochs_run or len(service.log):
            raise ServiceError(
                "restore() requires a freshly constructed service"
            )
        if self.seed != service.seed:
            raise ServiceError(
                f"checkpoint was captured at seed {self.seed}, "
                f"service runs seed {service.seed}"
            )
        cell_services = service.cell_services
        if len(self.cells) != len(cell_services):
            raise ServiceError(
                f"checkpoint covers {len(self.cells)} cell(s), "
                f"service has {len(cell_services)}"
            )
        for cell, flat in zip(self.cells, cell_services):
            cell.restore(flat)
            flat._epochs_run = self.epochs_run
        service._epochs_run = self.epochs_run
        service.snapshots = list(self.snapshots)
        service.log = self.resume_log(log)

    def resume_log(
        self, log: Optional[EventLog] = None, *, path: Optional[str] = None
    ) -> EventLog:
        """The event log a day resumed from this boundary continues on.

        ``log`` is the recovered log (usually :meth:`EventLog.recover`
        of the persisted file).  It is validated against this boundary
        — a mismatched checkpoint/log pair fails with the epoch, the
        path, and the reason rather than replaying a diverged history
        — then truncated to the checkpoint's length: events appended
        by a partially completed epoch are re-derived when the epoch
        re-runs.  Without a ``log`` the day continues on an empty log
        whose numbering starts at the boundary, so freshly appended
        events still carry their global sequence numbers.
        """
        if log is None:
            return EventLog(start_seq=self.log_length)
        log.validate_tail(self.log_length, self.epochs_run, path=path)
        log.truncate(self.log_length)
        return log

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-able rendering."""
        return {
            "version": self.version,
            "seed": self.seed,
            "epochs_run": self.epochs_run,
            "log_length": self.log_length,
            "snapshots": [snap.to_dict() for snap in self.snapshots],
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, entry: Dict[str, object]) -> "ServiceCheckpoint":
        """Rebuild a checkpoint from its :meth:`to_dict` form."""
        try:
            version = int(entry["version"])
            if version != CHECKPOINT_VERSION:
                raise ServiceError(
                    f"checkpoint version {version} unsupported "
                    f"(expected {CHECKPOINT_VERSION})"
                )
            return cls(
                version=version,
                seed=int(entry["seed"]),
                epochs_run=int(entry["epochs_run"]),
                log_length=int(entry["log_length"]),
                snapshots=[
                    MetricsSnapshot.from_dict(item)
                    for item in entry["snapshots"]
                ],
                cells=tuple(
                    CellState.from_dict(item) for item in entry["cells"]
                ),
            )
        except ServiceError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ServiceError("malformed service checkpoint") from exc

    def save(self, path: str) -> None:
        """Write the checkpoint atomically (crash keeps the old one)."""
        atomic_write_text(
            path, json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
        )

    @classmethod
    def load(cls, path: str) -> "ServiceCheckpoint":
        """Read a checkpoint written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                entry = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ServiceError(f"{path}: corrupt checkpoint") from exc
        return cls.from_dict(entry)
