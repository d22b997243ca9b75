"""Tests for fault injection on the measurement oracle (ClusterRunner)."""

import pytest

from repro.cluster.cluster import ClusterSpec
from repro.core.profiling.plan import (
    FALLBACK_FLOOR,
    MeasurementOracle,
    OUTLIER_BOUND,
    REPROBE_K,
)
from repro.errors import ConfigurationError, MeasurementFault
from repro.faults import FaultConfig, FaultPlan, RetryPolicy
from repro.obs import recording
from repro.sim.runner import ClusterRunner
from tests._synthetic import (
    QUIET_NOISE,
    hostile_plan,
    quiet_runner,
    synthetic_factory,
)


def faulty_runner(plan, *, retry=None, base_seed=1):
    return ClusterRunner(
        ClusterSpec(num_nodes=4, cores_per_node=16),
        noise=QUIET_NOISE,
        base_seed=base_seed,
        workload_factory=synthetic_factory(),
        faults=plan,
        retry=retry,
    )


def measure_all(runner):
    return {
        "solo": runner.solo_time("app"),
        "hom": runner.measure("app", 8.0, 2),
        "het": runner.measure_heterogeneous("app", {0: 4.0, 2: 8.0}),
        "corun": runner.corun_pair("app", "other"),
        "deploy": runner.run_deployments(
            [("a", "app", {0: 0, 1: 1}), ("b", "other", {0: 2, 1: 3})]
        ),
    }


class TestCleanPath:
    def test_no_plan_is_inactive(self):
        assert not quiet_runner().faults_active

    def test_all_zero_plan_is_inactive_and_free(self):
        clean = quiet_runner(factory=synthetic_factory())
        nulled = faulty_runner(FaultPlan.none())
        assert not nulled.faults_active
        with recording() as rec:
            values = measure_all(nulled)
        assert values == measure_all(clean)
        # The clean path records no fault activity whatsoever.
        assert not any(
            name.startswith(("fault.", "retry.")) for name in rec.counters
        )


class TestCrashRetries:
    def test_crash_only_faults_never_change_values(self):
        # Crashes kill attempts, not values: a retried reading
        # re-simulates the same deterministic run, so every measurement
        # matches the clean runner exactly.
        clean = quiet_runner(factory=synthetic_factory())
        crashy = faulty_runner(FaultPlan(FaultConfig(seed=0, crash_rate=0.3)))
        with recording() as rec:
            values = measure_all(crashy)
        assert values == measure_all(clean)
        assert rec.counters["fault.crash"] >= 1
        assert rec.counters["retry.recovered"] >= 1
        assert crashy.measurement_count == clean.measurement_count
        assert not crashy.faulted_workloads

    def test_faulty_runs_replay_byte_stable(self):
        plan = hostile_plan(7)
        with recording() as first:
            a = measure_all(faulty_runner(plan))
        with recording() as second:
            b = measure_all(faulty_runner(plan))
        assert a == b
        assert first.counters == second.counters
        assert len(first.spans) == len(second.spans)

    def test_exhaustion_marks_workloads_degraded(self):
        doomed = faulty_runner(
            FaultPlan(FaultConfig(seed=0, crash_rate=1.0)),
            retry=RetryPolicy(max_attempts=2),
        )
        with pytest.raises(MeasurementFault) as excinfo:
            doomed.corun_pair("app", "other")
        assert excinfo.value.workload == "app,other"
        assert doomed.faulted_workloads == {"app", "other"}


class TestPerturbation:
    def test_stragglers_inflate_probe_readings_only(self):
        clean = quiet_runner(factory=synthetic_factory())
        slowed = faulty_runner(FaultPlan(FaultConfig(
            seed=0, straggler_rate=1.0, straggler_factor=1.5,
        )))
        assert slowed.measure_heterogeneous_time(
            "app", {0: 8.0}
        ) == pytest.approx(
            1.5 * clean.measure_heterogeneous_time("app", {0: 8.0})
        )
        # Solo baselines and ground-truth co-runs are crash-retry-only.
        assert slowed.solo_time("app") == clean.solo_time("app")
        assert slowed.corun_pair("app", "other") == clean.corun_pair(
            "app", "other"
        )
        assert slowed.run_deployments(
            [("a", "app", {0: 0, 1: 1})]
        ) == clean.run_deployments([("a", "app", {0: 0, 1: 1})])

    def test_outliers_multiply_by_the_garbage_factor(self):
        clean = quiet_runner(factory=synthetic_factory())
        noisy = faulty_runner(FaultPlan(FaultConfig(
            seed=0, outlier_rate=1.0, outlier_factor=25.0,
        )))
        assert noisy.measure_heterogeneous_time(
            "app", {0: 8.0}
        ) == pytest.approx(
            25.0 * clean.measure_heterogeneous_time("app", {0: 8.0})
        )


class TestRobustProfiling:
    def test_outlier_detection_reprobes_to_a_clean_median(self):
        plan = FaultPlan(FaultConfig(
            seed=3, outlier_rate=0.35, outlier_factor=25.0,
        ))
        runner = faulty_runner(plan)
        clean = quiet_runner(factory=synthetic_factory())
        clean_oracle = MeasurementOracle(clean, "app")
        oracle = MeasurementOracle(runner, "app")
        recovered = 0
        for step in range(1, 13):
            pressure = float(step)
            with recording() as rec:
                value = oracle.normalized(pressure, 2)
            if rec.counters.get("fault.outlier_detected"):
                # The suspect plus REPROBE_K - 1 repetitions, one
                # probe span each (retry cost lands in Table 3).
                assert len(rec.spans_named("profile.probe")) == REPROBE_K
                assert rec.counters["retry.reprobe"] == REPROBE_K - 1
                if value < OUTLIER_BOUND:
                    recovered += 1
                    assert value == pytest.approx(
                        clean_oracle.normalized(pressure, 2)
                    )
        # At least one outlier was caught and cleaned by the median.
        assert recovered >= 1

    def test_exhausted_probe_falls_back_conservatively(self):
        runner = faulty_runner(
            FaultPlan(FaultConfig(seed=0, crash_rate=1.0)),
            retry=RetryPolicy(max_attempts=1),
        )
        oracle = MeasurementOracle(runner, "app")
        with recording() as rec:
            value = oracle.normalized(8.0, 2)
        assert value == FALLBACK_FLOOR
        assert rec.counters["fault.probe_fallback"] == 1
        assert "app" in runner.faulted_workloads


class TestAccountingAtAFailure:
    """A failing measurement keeps the accounting of every call before it."""

    def test_fault_keeps_the_accounting_before_it(self):
        # The third call is the first to fault: the setting reads fine,
        # then its solo baseline exhausts the retry budget.
        runner = faulty_runner(
            FaultPlan(FaultConfig(seed=1, crash_rate=0.5)),
            retry=RetryPolicy(max_attempts=2),
        )
        runner.solo_time("app")
        runner.measure("app", 8.0, 2)
        with pytest.raises(MeasurementFault):
            runner.measure("other", 4.0, 1)
        assert (
            runner.faulted_workloads,
            runner.measurement_count,
            runner.solo_measurement_count,
        ) == ({"other"}, 2, 3)

    def test_error_keeps_the_accounting_before_it(self):
        # The third call's span exceeds the 4-node cluster.
        runner = quiet_runner()
        runner.measure("app", 8.0, 2)
        runner.solo_time("other")
        with pytest.raises(ConfigurationError):
            runner.measure("app", 8.0, 2, span=9)
        assert (runner.measurement_count, runner.solo_measurement_count) == (
            1, 6,
        )
