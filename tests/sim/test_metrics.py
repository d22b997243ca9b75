"""Tests for trace-derived run metrics."""

import pytest

from repro.errors import SimulationError
from repro.sim.execution import CoRunExecutor, DeployedInstance
from repro.sim.metrics import all_stage_stats, slowdown_breakdown, stage_stats
from repro.sim.trace import ExecutionTrace
from tests._synthetic import QUIET_NOISE, bsp_workload


def traced_run(*instances, seed=0):
    trace = ExecutionTrace()
    CoRunExecutor(list(instances), seed=seed, noise=QUIET_NOISE, trace=trace).run()
    return trace


class TestStageStats:
    def test_solo_stats(self):
        workload = bsp_workload("app", iterations=4, base_time=8.0)
        trace = traced_run(DeployedInstance("app", workload, {0: 0, 1: 1}))
        stats = stage_stats(trace, "app")
        assert stats.stages == 4
        assert stats.total_time == pytest.approx(8.0)
        assert stats.mean_stage_time == pytest.approx(2.0)
        assert stats.stage_time_cv == pytest.approx(0.0, abs=1e-9)
        assert stats.straggler_ratio == pytest.approx(1.0)

    def test_missing_instance(self):
        with pytest.raises(SimulationError):
            stage_stats(ExecutionTrace(), "ghost")

    def test_all_stage_stats(self):
        a = bsp_workload("a", iterations=3)
        b = bsp_workload("b", iterations=5)
        trace = traced_run(
            DeployedInstance("a", a, {0: 0}),
            DeployedInstance("b", b, {0: 1}),
        )
        stats = all_stage_stats(trace)
        assert stats["a"].stages == 3
        assert stats["b"].stages == 5


class TestSlowdownBreakdown:
    def test_uniform_interference(self):
        from repro.apps.bubble import BubbleWorkload

        workload = bsp_workload("t", iterations=4, base_time=8.0, score=0.0)
        solo = traced_run(DeployedInstance("t", workload, {0: 0, 1: 1}))
        trace = ExecutionTrace()
        CoRunExecutor(
            [
                DeployedInstance("t", workload, {0: 0, 1: 1}),
                DeployedInstance("b0", BubbleWorkload(8.0), {0: 0}),
                DeployedInstance("b1", BubbleWorkload(8.0), {0: 1}),
            ],
            seed=0,
            noise=QUIET_NOISE,
            trace=trace,
        ).run()
        ratios = slowdown_breakdown(solo, trace, "t")
        assert len(ratios) == 4
        # LinearSensitivity(2.0) at pressure 8 -> 2x per stage.
        for ratio in ratios:
            assert ratio == pytest.approx(2.0, rel=0.01)

    def test_sustained_faster_instance(self):
        # A sustained co-run's faster instance keeps exerting pressure
        # while the slower one finishes, yet its trace holds one pass:
        # one ratio per program stage.
        a = bsp_workload("a", iterations=4, base_time=8.0, score=2.0)
        b = bsp_workload("b", iterations=4, base_time=40.0, score=2.0)
        solo = traced_run(DeployedInstance("a", a, {0: 0, 1: 1}))
        trace = ExecutionTrace()
        CoRunExecutor(
            [
                DeployedInstance("a", a, {0: 0, 1: 1}),
                DeployedInstance("b", b, {0: 0, 1: 1}),
            ],
            seed=0,
            noise=QUIET_NOISE,
            trace=trace,
            sustained=True,
        ).run()
        ratios = slowdown_breakdown(solo, trace, "a")
        assert len(ratios) == 4
        # LinearSensitivity(2.0) at pressure 2 -> 1.25x per stage.
        for ratio in ratios:
            assert ratio == pytest.approx(1.25)
        assert stage_stats(trace, "a").stages == 4

    def test_stage_count_mismatch(self):
        a = bsp_workload("t", iterations=2)
        b = bsp_workload("t", iterations=3)
        trace_a = traced_run(DeployedInstance("t", a, {0: 0}))
        trace_b = traced_run(DeployedInstance("t", b, {0: 0}))
        with pytest.raises(SimulationError, match="mismatch"):
            slowdown_breakdown(trace_a, trace_b, "t")
