"""Discrete-event simulation of consolidated cluster executions."""

from repro.sim.metrics import (
    StageStats,
    all_stage_stats,
    slowdown_breakdown,
    stage_stats,
)
from repro.sim.execution import CoRunExecutor, DeployedInstance, InstanceResult
from repro.sim.noise import (
    EC2_NOISE,
    PRIVATE_TESTBED_NOISE,
    AmbientNoise,
    NoiseProfile,
    StallModel,
    TaskJitter,
)
from repro.sim.pressure import PressureField
from repro.sim.runner import ClusterRunner
from repro.sim.trace import ExecutionTrace, StageRecord

__all__ = [
    "AmbientNoise",
    "ClusterRunner",
    "CoRunExecutor",
    "DeployedInstance",
    "EC2_NOISE",
    "ExecutionTrace",
    "InstanceResult",
    "NoiseProfile",
    "PRIVATE_TESTBED_NOISE",
    "PressureField",
    "StallModel",
    "StageRecord",
    "StageStats",
    "all_stage_stats",
    "slowdown_breakdown",
    "stage_stats",
    "TaskJitter",
]
