"""Tests for the co-run executor's semantics."""

import pytest

from repro.apps.bubble import BubbleWorkload
from repro.cluster.contention import LinearSensitivity
from repro.errors import ConfigurationError
from repro.sim.execution import CoRunExecutor, DeployedInstance
from repro.sim.trace import ExecutionTrace
from tests._synthetic import QUIET_NOISE, batch_workload, bsp_workload, loose_workload


def deploy(workload, nodes, key=None):
    return DeployedInstance(
        instance_key=key or workload.name,
        workload=workload,
        units_to_nodes={i: n for i, n in enumerate(nodes)},
    )


def run(*instances, seed=0, sustained=False, trace=None, num_nodes=None):
    return CoRunExecutor(
        list(instances),
        seed=seed,
        noise=QUIET_NOISE,
        sustained=sustained,
        trace=trace,
        num_nodes=num_nodes,
    ).run()


class TestSoloExecution:
    def test_bsp_solo_time_exact(self):
        # 4 iterations, base_time 10, no jitter, free network:
        # each iteration takes base/4 on every slot simultaneously.
        workload = bsp_workload(iterations=4, base_time=10.0)
        results = run(deploy(workload, [0, 1]))
        assert results[workload.name].finish_time == pytest.approx(10.0)

    def test_task_accounting(self):
        workload = bsp_workload(iterations=4)
        results = run(deploy(workload, [0, 1]))
        # 2 units x 2 slots_per_unit x 4 iterations.
        assert results[workload.name].tasks_executed == 16
        assert results[workload.name].stages_completed == 4

    def test_deterministic_given_seed(self):
        workload = bsp_workload(noise_cv=0.1)
        a = run(deploy(workload, [0, 1]), seed=5)
        b = run(deploy(workload, [0, 1]), seed=5)
        assert a[workload.name].finish_time == b[workload.name].finish_time

    def test_different_seeds_differ(self):
        from repro.sim.noise import NoiseProfile, StallModel

        jittery = NoiseProfile(jitter_scale=1.0, stall=StallModel(0.0))
        workload = bsp_workload(noise_cv=0.1)
        a = CoRunExecutor([deploy(workload, [0, 1])], seed=5, noise=jittery).run()
        b = CoRunExecutor([deploy(workload, [0, 1])], seed=6, noise=jittery).run()
        assert a[workload.name].finish_time != b[workload.name].finish_time


class TestInterferenceSemantics:
    def test_bsp_slowed_by_max_node(self):
        # BSP couples via barriers: one pressured node slows everything.
        target = bsp_workload("t", base_time=10.0, score=0.0)
        # LinearSensitivity(2.0): slowdown at p=4 is 1.5.
        loud = bsp_workload("l", score=4.0, base_time=1000.0)
        results = run(
            deploy(target, [0, 1]),
            deploy(loud, [1, 2], key="l"),
            sustained=True,
        )
        assert results["t"].finish_time == pytest.approx(15.0)

    def test_independent_batch_max_of_sums(self):
        # A batch gang is slowed only on its pressured slots.
        target = batch_workload("t", base_time=10.0, score=0.0)
        loud = bsp_workload("l", score=4.0, base_time=1000.0)
        results = run(
            deploy(target, [0, 1]),
            deploy(loud, [1, 2], key="l"),
            sustained=True,
        )
        # Slot on node 1 takes 15.0; node 0 takes 10. Completion = max.
        assert results["t"].finish_time == pytest.approx(15.0)

    def test_dynamic_pool_rebalances(self):
        # Loosely-coupled work drains toward the fast node, so the
        # finish time reflects aggregate throughput, not the max.
        target = loose_workload("t", base_time=10.0, chunks_per_slot=64, score=0.0)
        loud = bsp_workload("l", score=4.0, base_time=1000.0)
        results = run(
            deploy(target, [0, 1]),
            deploy(loud, [1, 2], key="l"),
            sustained=True,
        )
        # Throughput model: speeds 1 and 1/1.5 -> time = 2*10/(1+2/3) = 12.
        assert results["t"].finish_time == pytest.approx(12.0, rel=0.05)

    def test_pressure_released_on_finish(self):
        # Without sustained mode, a short co-runner's pressure vanishes
        # when it finishes, so the target ends faster than under
        # sustained interference.
        target = bsp_workload("t", base_time=10.0, score=0.0, iterations=40)
        short = bsp_workload("s", score=4.0, base_time=1.0, iterations=4)
        open_run = run(deploy(target, [0, 1]), deploy(short, [0, 1], key="s"))
        sustained = run(
            deploy(target, [0, 1]), deploy(short, [0, 1], key="s"), sustained=True
        )
        assert open_run["t"].finish_time < sustained["t"].finish_time


class TestBubbles:
    def test_bubble_pressures_target(self):
        target = bsp_workload("t", base_time=10.0, score=0.0)
        bubble = DeployedInstance("b", BubbleWorkload(8.0), {0: 1})
        results = run(deploy(target, [0, 1]), bubble)
        assert results["t"].finish_time == pytest.approx(20.0)  # slowdown 2.0

    def test_bubble_result_marked_passive(self):
        target = bsp_workload("t", base_time=10.0)
        bubble = DeployedInstance("b", BubbleWorkload(4.0), {0: 1})
        results = run(deploy(target, [0, 1]), bubble)
        assert results["b"].passive
        assert results["b"].finish_time == results["t"].finish_time

    def test_bubble_reads_target_pressure(self):
        target = bsp_workload("t", base_time=10.0, score=3.0)
        bubble = DeployedInstance("b", BubbleWorkload(1.0), {0: 1})
        results = run(deploy(target, [0, 1]), bubble)
        assert results["b"].mean_pressure_seen == pytest.approx(3.0)

    def test_all_passive_rejected(self):
        bubble = DeployedInstance("b", BubbleWorkload(4.0), {0: 0})
        with pytest.raises(ConfigurationError, match="active"):
            CoRunExecutor([bubble])


class TestSustainedMode:
    def test_first_pass_times_reported(self):
        # Both instances loop; each result is its first-pass time.
        a = bsp_workload("a", base_time=5.0, score=2.0)
        b = bsp_workload("b", base_time=20.0, score=2.0)
        results = run(
            deploy(a, [0, 1], key="a"), deploy(b, [0, 1], key="b"), sustained=True
        )
        assert results["a"].finish_time < results["b"].finish_time
        # b experiences a's pressure for its WHOLE first pass: with
        # LinearSensitivity(2.0) at p=2, slowdown is 1.25.
        assert results["b"].finish_time == pytest.approx(25.0)

    def test_faster_instance_reports_its_first_pass(self):
        # The faster instance's pressure stays present until the slower
        # one finishes, but its accounting covers one pass of its own
        # program: 2 units x 2 slots x 4 iterations, 4 stages.
        a = bsp_workload("a", iterations=4, base_time=5.0, score=2.0)
        b = bsp_workload("b", base_time=20.0, score=2.0)
        trace = ExecutionTrace()
        results = run(
            deploy(a, [0, 1], key="a"),
            deploy(b, [0, 1], key="b"),
            sustained=True,
            trace=trace,
        )
        assert results["a"].tasks_executed == 16
        assert results["a"].stages_completed == 4
        assert trace.summary() == {"a": 4, "b": 4}
        assert trace.stages_of("a")[-1].completed_at == results["a"].finish_time

    def test_symmetric_pair(self):
        a = bsp_workload("x", base_time=10.0, score=4.0)
        results = run(
            deploy(a, [0, 1], key="x0"), deploy(a, [0, 1], key="x1"), sustained=True
        )
        assert results["x0"].finish_time == pytest.approx(
            results["x1"].finish_time, rel=0.01
        )


class TestValidation:
    def test_duplicate_keys_rejected(self):
        workload = bsp_workload()
        with pytest.raises(ConfigurationError, match="duplicate"):
            CoRunExecutor([deploy(workload, [0]), deploy(workload, [1])])

    def test_active_instance_needs_units(self):
        with pytest.raises(ConfigurationError, match="no units"):
            DeployedInstance("a", bsp_workload(), {})

    def test_slot_nodes_unit_major(self):
        inst = deploy(bsp_workload(slots_per_unit=2), [3, 5])
        assert inst.slot_nodes() == [3, 3, 5, 5]
        assert inst.spanned_nodes() == [3, 5]
        assert inst.num_slots == 4


class TestTracing:
    def test_stage_records(self):
        trace = ExecutionTrace()
        workload = bsp_workload(iterations=3)
        run(deploy(workload, [0, 1]), trace=trace)
        records = trace.stages_of(workload.name)
        assert len(records) == 3
        times = [r.completed_at for r in records]
        assert times == sorted(times)
