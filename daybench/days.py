"""The three seeded reference days, built through the public API.

Each day is assembled the way the CLI smoke jobs assemble it, so at
seed 2016 its event log is the one CI already pins:

* ``flat-day`` — ``repro serve --seed S --epochs 12``: the flat
  :class:`~repro.service.ConsolidationService` on the 8-node testbed.
* ``sharded-day`` — a prefix of the day
  :func:`repro.scale.scale_day_service` builds (1000 nodes, 20 cells,
  400 arrivals/epoch), cells run serially in this process
  (``cell_workers=0``).
* ``durable-day`` — ``repro daemon --workers 4 --faults
  benchmarks/baselines/daemon_chaos_plan.json``: the same traffic as
  ``flat-day`` through :class:`~repro.daemon.ConsolidationDaemon`,
  which rebuilds the service from a checkpoint every epoch and fsyncs
  every event append into a spool directory.

Every day is a closed loop: one caller runs epochs back to back over a
seeded Poisson arrival schedule held in simulated time.  A day is split
into :meth:`Day.setup` (model profiling plus service construction),
:meth:`Day.run` (all epochs, the timed part) and :meth:`Day.outcome`
(reading the result back, untimed).

What the seed controls.  The flat and durable days serve the reference
traffic (the smoke day's 16 arrivals, stream seed 2016) with the model
profiled at seed 2016; the day's seed drives the controller — the
serving runner's measurement draws and every annealing search.  Their
work then varies with the seed by the search alone (the flat day's
function-call count moved 4.4% IQR over nine seeds), not by how many
jobs happened to arrive (wall time differed 3.5x between Poisson draws
of a 12-epoch day).  At seed 2016 both are exactly the
service/daemon smoke day.  The sharded day likewise serves the
reference traffic and model and its seed drives the cells' seeds:
Poisson draws moved its arrivals by up to 9% and its reject ratio from
0.22 to 0.30 between seeds.  At seed 2016 it is exactly
``scale_day_service(seed=2016)``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINES = REPO_ROOT / "benchmarks" / "baselines"

#: Seed of the reference traffic and profiled model (the smoke days').
REFERENCE_SEED = 2016

#: The serve/daemon smoke days' application mix and shape.
MIX = ("M.lmps", "M.milc", "H.KM", "S.WC")
FLAT_EPOCHS = 12
FLAT_ARRIVAL_RATE = 1.2
POLICY_SAMPLES = 10

#: Epochs of the 1000-node day the benchmark replays.
SHARDED_EPOCHS = 2

#: The daemon smoke's executor pool size and fault plan.
DURABLE_WORKERS = 4
DURABLE_PLAN = BASELINES / "daemon_chaos_plan.json"

WORKLOADS = ("flat-day", "sharded-day", "durable-day")


@dataclass
class DayOutcome:
    """What one run of a day produced (everything the checks read)."""

    log_jsonl: str
    counters: Dict[str, int]
    final: Dict[str, object]
    #: Job ids still resident / still queued when the day ended, read
    #: from the program's own state (not from the log).
    resident: Set[str]
    queued: Set[str]
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        """SHA-256 of the event log's canonical JSONL bytes."""
        return hashlib.sha256(self.log_jsonl.encode("utf-8")).hexdigest()

    def count(self, kind: str) -> int:
        return int(self.counters.get(kind, 0))

    @property
    def decisions(self) -> int:
        """Admission outcomes logged: admit + queue + reject."""
        return self.count("admit") + self.count("queue") + self.count("reject")


def _profile(seed: int, faults=None):
    """Profile the serving model on the 8-node testbed (as ``repro serve``)."""
    from repro.apps.catalog import BATCH_WORKLOADS
    from repro.core import builder
    from repro.sim.runner import ClusterRunner

    runner = ClusterRunner(None, base_seed=seed, faults=faults)
    distributed = [w for w in MIX if w not in BATCH_WORKLOADS]
    batch = [w for w in MIX if w in BATCH_WORKLOADS]
    report = builder.build_model(
        runner, distributed, policy_samples=POLICY_SAMPLES, seed=seed, span=4
    )
    if batch:
        builder.build_batch_profiles(runner, report.model, batch, span=4)
    return runner, report.model


def _serving_runner(seed: int, degraded, faults=None):
    """A fresh ground-truth runner that inherits profiling's degraded set."""
    from repro.sim.runner import ClusterRunner

    runner = ClusterRunner(None, base_seed=seed, faults=faults)
    runner.faulted_workloads.update(degraded)
    return runner


def _reference_stream():
    from repro.service import StreamConfig, WorkloadStream

    return WorkloadStream(
        StreamConfig(
            workloads=MIX, arrival_rate=FLAT_ARRIVAL_RATE, qos_fraction=0.5
        ),
        seed=REFERENCE_SEED,
    )


def _service_config():
    from repro.service import ServiceConfig

    return ServiceConfig(reschedule_every=1, migration_cost=0.02)


def _timed_epochs(service, epochs: int) -> List[Tuple[float, float]]:
    spans = []
    for epoch in range(epochs):
        start = time.perf_counter()
        service.run_epoch(epoch)
        spans.append((start, time.perf_counter()))
    return spans


def _queued_ids(service) -> Set[str]:
    return {job.job_id for job, _ in service.checkpoint().queue}


class Day:
    """One workload at one seed: ``setup()``, ``run()``, ``outcome()``."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Profile the model and construct the service."""
        raise NotImplementedError

    def run(self) -> List[Tuple[float, float]]:
        """Run every epoch; returns each epoch's ``perf_counter`` span."""
        raise NotImplementedError

    def outcome(self) -> DayOutcome:
        """Read the finished day back for the checks."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` created on disk."""


class FlatDay(Day):
    name = "flat-day"

    def setup(self) -> None:
        from repro.service import ConsolidationService

        profiling_runner, model = _profile(REFERENCE_SEED)
        self.service = ConsolidationService(
            _serving_runner(self.seed, profiling_runner.faulted_workloads),
            model,
            _reference_stream(),
            config=_service_config(),
            seed=self.seed,
        )

    def run(self) -> List[Tuple[float, float]]:
        return _timed_epochs(self.service, FLAT_EPOCHS)

    def outcome(self) -> DayOutcome:
        service = self.service
        return DayOutcome(
            log_jsonl=service.log.to_jsonl(),
            counters=service.log.counts(),
            final=service.snapshots[-1].to_dict(),
            resident={job.job_id for job in service.tenants},
            queued=_queued_ids(service),
        )


class ShardedDay(Day):
    name = "sharded-day"

    def setup(self) -> None:
        """``scale_day_service`` with the reference traffic and model."""
        from repro.cluster.cluster import ClusterSpec
        from repro.scale import (
            SCALE_DAY_ARRIVAL_RATE,
            SCALE_DAY_CELLS,
            SCALE_DAY_MIX,
            SCALE_DAY_NODES,
            build_sharded_service,
            scale_service_config,
        )
        from repro.service import StreamConfig, WorkloadStream

        profiling_runner, model = _profile(REFERENCE_SEED)
        stream = WorkloadStream(
            StreamConfig(
                workloads=SCALE_DAY_MIX,
                arrival_rate=SCALE_DAY_ARRIVAL_RATE,
                qos_fraction=0.5,
            ),
            seed=REFERENCE_SEED,
        )
        self.service = build_sharded_service(
            model,
            ClusterSpec(num_nodes=SCALE_DAY_NODES),
            SCALE_DAY_CELLS,
            stream,
            seed=self.seed,
            config=scale_service_config(),
            cell_workers=0,
            degraded_workloads=sorted(profiling_runner.faulted_workloads),
        )

    def run(self) -> List[Tuple[float, float]]:
        return _timed_epochs(self.service, SHARDED_EPOCHS)

    def outcome(self) -> DayOutcome:
        service = self.service
        resident: Set[str] = set()
        queued: Set[str] = set()
        for cell in service.cells:
            resident |= {job.job_id for job in cell.service.tenants}
            queued |= _queued_ids(cell.service)
        return DayOutcome(
            log_jsonl=service.log.to_jsonl(),
            counters=service.log.counts(),
            final=service.snapshots[-1].to_dict(),
            resident=resident,
            queued=queued,
        )


class _EpochClock:
    """Arrival source that stamps the wall clock at each epoch's start.

    The daemon asks its stream for an epoch's arrivals exactly once, as
    the first step of that epoch, so consecutive stamps bracket one
    epoch from outside the program.
    """

    def __init__(self, stream) -> None:
        self.stream = stream
        self.stamps: List[float] = []

    def arrivals(self, epoch: int):
        self.stamps.append(time.perf_counter())
        return self.stream.arrivals(epoch)


class DurableDay(Day):
    name = "durable-day"

    def setup(self) -> None:
        from repro.daemon import ConsolidationDaemon, ServiceBlueprint
        from repro.faults import FaultPlan

        plan = FaultPlan.load(DURABLE_PLAN)
        profiling_runner, model = _profile(REFERENCE_SEED, faults=plan)
        degraded = tuple(sorted(profiling_runner.faulted_workloads))
        seed = self.seed
        blueprint = ServiceBlueprint(
            lambda: _serving_runner(seed, degraded, faults=plan),
            model,
            config=_service_config(),
            seed=seed,
        )
        self.spool_dir = self.workdir / f"spool-{seed}"
        shutil.rmtree(self.spool_dir, ignore_errors=True)
        self.clock = _EpochClock(_reference_stream())
        self.daemon = ConsolidationDaemon(
            str(self.spool_dir),
            blueprint,
            self.clock,
            workers=DURABLE_WORKERS,
            faults=plan,
        )

    def run(self) -> List[Tuple[float, float]]:
        self.daemon.run(FLAT_EPOCHS)
        stamps = self.clock.stamps + [time.perf_counter()]
        return list(zip(stamps, stamps[1:]))

    def outcome(self) -> DayOutcome:
        from repro.service import ServiceCheckpoint

        daemon = self.daemon
        state = ServiceCheckpoint.load(str(daemon.spool.checkpoint_path))
        return DayOutcome(
            log_jsonl=daemon.log.to_jsonl(),
            counters=daemon.log.counts(),
            final=daemon.snapshots[-1].to_dict(),
            resident={job.job_id for job, _ in state.tenants},
            queued={job.job_id for job, _ in state.queue},
            stats=dict(daemon.stats),
        )

    def close(self) -> None:
        shutil.rmtree(self.spool_dir, ignore_errors=True)


DAYS = {cls.name: cls for cls in (FlatDay, ShardedDay, DurableDay)}


def make_day(workload: str, seed: int, workdir: Path) -> Day:
    try:
        cls = DAYS[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}"
        ) from None
    return cls(seed, workdir)


def read_baseline(name: str) -> Optional[dict]:
    """A checked-in smoke expectation (``None`` when absent)."""
    path = BASELINES / name
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))
