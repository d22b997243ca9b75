"""Synthetic workloads and environments for fast, exact unit tests.

The catalog workloads carry jitter and stalls tuned for realism; unit
tests instead want small, deterministic programs whose expected
execution times can be computed by hand.  These helpers build them.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.base import (
    PropagationClass,
    Workload,
    WorkloadFamily,
    WorkloadSpec,
)
from repro.apps.batch import BatchWorkload
from repro.apps.mpi import BSPWorkload, CollectiveType, LooselyCoupledWorkload
from repro.cluster.cluster import ClusterSpec
from repro.cluster.contention import LinearSensitivity, SensitivityFunction
from repro.cluster.topology import SwitchTopology
from repro.faults import FaultConfig, FaultPlan
from repro.sim.noise import NoiseProfile, StallModel
from repro.sim.runner import ClusterRunner

#: Noise-free environment: no jitter scaling effect, no stalls.
QUIET_NOISE = NoiseProfile(jitter_scale=0.0, ambient=None, stall=StallModel(0.0))

#: Zero-cost interconnect for exact arithmetic on stage times.
FREE_NETWORK = SwitchTopology(base_latency=0.0, per_node_cost=0.0)


def synthetic_spec(
    name: str = "synth",
    *,
    sensitivity: Optional[SensitivityFunction] = None,
    score: float = 2.0,
    base_time: float = 10.0,
    noise_cv: float = 0.0,
    master_factor: float = 1.0,
    slots_per_unit: int = 2,
    net_score: float = 0.0,
    net_sensitivity: Optional[SensitivityFunction] = None,
) -> WorkloadSpec:
    """A minimal workload spec with controllable knobs."""
    return WorkloadSpec(
        name=name,
        abbrev=name,
        family=WorkloadFamily.SYNTHETIC,
        propagation_class=PropagationClass.HIGH,
        sensitivity=sensitivity or LinearSensitivity(max_slowdown=2.0),
        generated_pressure=score,
        base_time=base_time,
        noise_cv=noise_cv,
        master_pressure_factor=master_factor,
        slots_per_unit=slots_per_unit,
        network_sensitivity=net_sensitivity,
        generated_network_pressure=net_score,
    )


def bsp_workload(
    name: str = "synth-bsp", *, iterations: int = 4, **spec_kwargs
) -> BSPWorkload:
    """Deterministic BSP workload with a free network."""
    return BSPWorkload(
        synthetic_spec(name, **spec_kwargs),
        iterations=iterations,
        collective=CollectiveType.BARRIER,
        topology=FREE_NETWORK,
    )


def loose_workload(
    name: str = "synth-loose", *, phases: int = 2, chunks_per_slot: int = 4,
    **spec_kwargs,
) -> LooselyCoupledWorkload:
    """Deterministic loosely-coupled workload with a free network."""
    return LooselyCoupledWorkload(
        synthetic_spec(name, **spec_kwargs),
        phases=phases,
        chunks_per_slot=chunks_per_slot,
        topology=FREE_NETWORK,
    )


def batch_workload(
    name: str = "synth-batch", *, chunks: int = 4, **spec_kwargs
) -> BatchWorkload:
    """Deterministic batch workload."""
    return BatchWorkload(synthetic_spec(name, **spec_kwargs), chunks=chunks)


class SyntheticFactory:
    """Picklable ``workload_factory`` mapping any abbreviation to a BSP synth.

    A class rather than a closure so runners built on it can cross
    process boundaries (cells fanned out by ``cell_workers``).
    """

    def __init__(self, **overrides) -> None:
        self.overrides = overrides

    def __call__(self, abbrev: str) -> Workload:
        return bsp_workload(abbrev, **self.overrides.get(abbrev, {}))


def synthetic_factory(**overrides) -> SyntheticFactory:
    """A ``workload_factory`` mapping any abbreviation to a BSP synth.

    Per-abbreviation keyword overrides can be supplied as
    ``synthetic_factory(appA={"score": 4.0})``.
    """
    return SyntheticFactory(**overrides)


def quiet_runner(
    num_nodes: int = 4, *, factory=None, base_seed: int = 1
) -> ClusterRunner:
    """A small, noise-free measurement environment."""
    spec = ClusterSpec(num_nodes=num_nodes, cores_per_node=16)
    return ClusterRunner(
        spec,
        noise=QUIET_NOISE,
        base_seed=base_seed,
        workload_factory=factory or synthetic_factory(),
    )


def hostile_plan(seed: int, *, scale: float = 1.0) -> FaultPlan:
    """A moderately hostile measurement fault plan: crashes, stragglers
    and outliers at ``scale`` times 15%, 10% and 8%."""
    return FaultPlan(FaultConfig(
        seed=seed,
        crash_rate=0.15 * scale,
        straggler_rate=0.10 * scale,
        outlier_rate=0.08 * scale,
    ))
