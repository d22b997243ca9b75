"""The seeded 1000-node, 10k-job "traffic day" scenario.

The scale layer's reference workload: 1000 nodes sharded into 20 cells
of 50, a Poisson arrival stream averaging 400 jobs per epoch over 25
epochs (~10,000 jobs), drawing from the same four-application mix as
the flat ``repro serve`` day.  The day is heavily oversubscribed by
design — the cluster holds on the order of 600 concurrent jobs — so
the router, queue bounds, and rejection paths all carry real load.

Per-cell knobs are tightened relative to the flat 8-node defaults so
per-epoch wall time stays bounded at 50-node cells (the
``scale-smoke`` CI job guards it): admission evaluates at most
:data:`SCALE_ADMISSION_CANDIDATES` combinations per decision and the
rescheduling search runs a shorter annealing schedule.  Determinism is
untouched — every knob is part of the seeded configuration.

Model profiling happens once, on the paper's 8-node testbed
environment (profiling cost does not scale with the serving cluster),
and the profiled model is shared by every cell as the static base
under its own online corrections.
"""

from __future__ import annotations

from repro.apps.catalog import BATCH_WORKLOADS
from repro.core.builder import build_batch_profiles, build_model
from repro.placement.annealing import AnnealingSchedule
from repro.scale.service import (
    ShardedConsolidationService,
    build_sharded_service,
)
from repro.service.loop import ServiceConfig
from repro.service.stream import StreamConfig, WorkloadStream
from repro.sim.runner import ClusterRunner

#: The 1000-node day's shape.
SCALE_DAY_NODES = 1000
SCALE_DAY_CELLS = 20
SCALE_DAY_EPOCHS = 25
SCALE_DAY_ARRIVAL_RATE = 400.0  # Poisson mean; ~10k jobs over the day
SCALE_DAY_SEED = 2016

#: Application mix (the flat serve day's default).
SCALE_DAY_MIX = ("M.lmps", "M.milc", "H.KM", "S.WC")

#: Per-decision admission-candidate cap at cell scale.
SCALE_ADMISSION_CANDIDATES = 64

#: Per-cell annealing schedule (shorter than the flat default).
SCALE_SCHEDULE = AnnealingSchedule(iterations=300, restarts=1)


def scale_service_config(
    *,
    reschedule_every: int = 1,
    migration_cost: float = 0.02,
) -> ServiceConfig:
    """The per-cell :class:`ServiceConfig` multi-cell days run."""
    return ServiceConfig(
        reschedule_every=reschedule_every,
        migration_cost=migration_cost,
        schedule=SCALE_SCHEDULE,
        admission_candidates=SCALE_ADMISSION_CANDIDATES,
    )


def scale_day_service(
    *, seed: int = SCALE_DAY_SEED, cell_workers: int = 0
) -> ShardedConsolidationService:
    """Build the seeded 1000-node day's sharded service.

    Profiles the serving model on the paper's 8-node testbed (same
    procedure as ``repro serve``), then shards :data:`SCALE_DAY_NODES`
    nodes into :data:`SCALE_DAY_CELLS` cells fed by a Poisson stream of
    :data:`SCALE_DAY_ARRIVAL_RATE` jobs per epoch.  Run it with
    ``service.run(SCALE_DAY_EPOCHS)``.
    """
    from repro.cluster.cluster import ClusterSpec

    profiling_runner = ClusterRunner(base_seed=seed)
    distributed = [w for w in SCALE_DAY_MIX if w not in BATCH_WORKLOADS]
    batch = [w for w in SCALE_DAY_MIX if w in BATCH_WORKLOADS]
    report = build_model(
        profiling_runner, distributed, policy_samples=10, seed=seed, span=4
    )
    if batch:
        build_batch_profiles(profiling_runner, report.model, batch, span=4)
    stream = WorkloadStream(
        StreamConfig(
            workloads=SCALE_DAY_MIX,
            arrival_rate=SCALE_DAY_ARRIVAL_RATE,
            qos_fraction=0.5,
        ),
        seed=seed,
    )
    return build_sharded_service(
        report.model,
        ClusterSpec(num_nodes=SCALE_DAY_NODES),
        SCALE_DAY_CELLS,
        stream,
        seed=seed,
        config=scale_service_config(),
        cell_workers=cell_workers,
        degraded_workloads=sorted(profiling_runner.faulted_workloads),
    )
