"""Builders for the scale-layer tests: quiet synthetic cells.

Every helper runs cells over noise-free synthetic workloads (see
``tests/_synthetic.py``) so days are fast and exactly deterministic:
byte-identity assertions compare full JSONL event logs.
"""

from __future__ import annotations

from repro.cluster.cluster import ClusterSpec
from repro.core.builder import build_model
from repro.placement.annealing import AnnealingSchedule
from repro.scale import build_sharded_service
from repro.service.loop import ConsolidationService, ServiceConfig
from repro.service.stream import StreamConfig, WorkloadStream
from repro.sim.runner import ClusterRunner
from tests._synthetic import QUIET_NOISE, synthetic_factory

FAST_SCHEDULE = AnnealingSchedule(iterations=200, restarts=1)


class CellRunnerFactory:
    """Picklable per-cell runner factory over quiet synthetic workloads."""

    def __call__(self, shard, cell_seed: int) -> ClusterRunner:
        return ClusterRunner(
            shard.spec,
            noise=QUIET_NOISE,
            base_seed=cell_seed,
            workload_factory=synthetic_factory(),
        )


def build_synthetic_model():
    """A model profiled on the quiet synthetic testbed."""
    runner = ClusterRunner(
        ClusterSpec(num_nodes=8, cores_per_node=16),
        noise=QUIET_NOISE,
        base_seed=1,
        workload_factory=synthetic_factory(),
    )
    report = build_model(
        runner, ["appA", "appB"], policy_samples=4, seed=31, span=4
    )
    return report.model


def service_config(**overrides) -> ServiceConfig:
    overrides.setdefault("schedule", FAST_SCHEDULE)
    return ServiceConfig(**overrides)


def arrival_stream(seed: int = 11, rate: float = 2.5) -> WorkloadStream:
    return WorkloadStream(
        StreamConfig(workloads=("appA", "appB"), arrival_rate=rate),
        seed=seed,
    )


class _IdentityShard:
    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec


def flat_service(model, *, num_nodes: int = 12, seed: int = 11, **config):
    """The flat reference service over the same environment."""
    runner = CellRunnerFactory()(
        _IdentityShard(ClusterSpec(num_nodes=num_nodes, cores_per_node=16)),
        seed,
    )
    return ConsolidationService(
        runner,
        model,
        arrival_stream(seed),
        config=service_config(**config),
        seed=seed,
    )


def sharded_service(
    model,
    n_cells: int,
    *,
    num_nodes: int = 12,
    seed: int = 11,
    cell_workers: int = 0,
    coordinator=None,
    **config,
):
    """A sharded day over quiet synthetic cells."""
    return build_sharded_service(
        model,
        ClusterSpec(num_nodes=num_nodes, cores_per_node=16),
        n_cells,
        arrival_stream(seed),
        seed=seed,
        config=service_config(**config),
        runner_factory=CellRunnerFactory(),
        cell_workers=cell_workers,
        coordinator=coordinator,
    )
