"""Tests for retry policies and the retrying measurement path."""

import pytest

from repro.errors import FaultError, MeasurementFault
from repro.faults import FaultConfig, FaultPlan, RetryPolicy, attempt_reading
from repro.obs import recording


class TestRetryPolicy:
    def test_backoff_is_geometric(self):
        policy = RetryPolicy(backoff_base=0.05, backoff_factor=2.0)
        assert policy.backoff(1) == pytest.approx(0.05)
        assert policy.backoff(2) == pytest.approx(0.10)
        assert policy.backoff(3) == pytest.approx(0.20)

    def test_backoff_index_is_one_based(self):
        with pytest.raises(FaultError):
            RetryPolicy().backoff(0)

    def test_times_out(self):
        assert RetryPolicy(reading_timeout=5.0).times_out(5.1)
        assert not RetryPolicy(reading_timeout=5.0).times_out(5.0)
        assert not RetryPolicy().times_out(1e9)  # disabled by default

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"backoff_base": -0.1},
        {"backoff_factor": 0.5},
        {"reading_timeout": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(FaultError):
            RetryPolicy(**kwargs)


def _crashy_plan(rate, **kwargs):
    return FaultPlan(FaultConfig(seed=0, crash_rate=rate, **kwargs))


class TestAttemptReading:
    def test_clean_plan_returns_simulation(self):
        value = attempt_reading(
            FaultPlan.none(), RetryPolicy(), ("m", 0), lambda: 3.5
        )
        assert value == 3.5

    def test_crash_retries_then_recovers(self):
        # Find a label whose first attempt crashes but a later one
        # survives; the reading must come back clean with recovery
        # accounted.
        plan = _crashy_plan(0.5)
        policy = RetryPolicy(max_attempts=6)
        label = next(
            ("m", rep) for rep in range(100)
            if plan.crashes(("m", rep), 0)
            and any(not plan.crashes(("m", rep), a) for a in range(1, 6))
        )
        with recording() as rec:
            value = attempt_reading(plan, policy, label, lambda: 4.0)
        assert value == 4.0
        assert rec.counters["fault.crash"] >= 1
        assert rec.counters["retry.attempts"] == rec.counters["fault.crash"]
        assert rec.counters["retry.recovered"] == 1
        assert rec.counters["retry.backoff_sim"] > 0

    def test_exhaustion_raises_with_workload(self):
        plan = _crashy_plan(1.0)
        policy = RetryPolicy(max_attempts=3)
        with recording() as rec:
            with pytest.raises(MeasurementFault) as excinfo:
                attempt_reading(
                    plan, policy, ("m",), lambda: 1.0, workload="app"
                )
        assert excinfo.value.workload == "app"
        assert rec.counters["fault.exhausted"] == 1
        assert rec.counters["retry.attempts"] == 3
        assert rec.counters["fault.crash"] == 3

    def test_crashed_attempt_never_simulates(self):
        plan = _crashy_plan(1.0)
        calls = []
        with pytest.raises(MeasurementFault):
            attempt_reading(
                plan, RetryPolicy(max_attempts=2), ("m",),
                lambda: calls.append(1) or 1.0,
            )
        assert calls == []

    def test_perturbation_applies_stragglers_and_outliers(self):
        plan = FaultPlan(FaultConfig(
            seed=0, straggler_rate=1.0, straggler_factor=1.5,
            outlier_rate=1.0, outlier_factor=25.0,
        ))
        with recording() as rec:
            value = attempt_reading(plan, RetryPolicy(), ("m",), lambda: 2.0)
        assert value == pytest.approx(2.0 * 1.5 * 25.0)
        assert rec.counters["fault.straggler"] == 1
        assert rec.counters["fault.outlier"] == 1

    def test_perturb_false_believes_completed_readings(self):
        plan = FaultPlan(FaultConfig(
            seed=0, straggler_rate=1.0, outlier_rate=1.0,
        ))
        with recording() as rec:
            value = attempt_reading(
                plan, RetryPolicy(), ("m",), lambda: 2.0, perturb=False
            )
        assert value == 2.0
        assert "fault.straggler" not in rec.counters
        assert "fault.outlier" not in rec.counters

    def test_timeout_discards_slow_readings(self):
        # No crashes; every reading exceeds the timeout, so the budget
        # exhausts on timeouts alone.
        plan = FaultPlan(FaultConfig(seed=0, straggler_rate=1.0))
        policy = RetryPolicy(max_attempts=2, reading_timeout=1.0)
        with recording() as rec:
            with pytest.raises(MeasurementFault):
                attempt_reading(plan, policy, ("m",), lambda: 2.0)
        assert rec.counters["fault.timeout"] == 2

    def test_dict_readings_do_not_time_out(self):
        plan = FaultPlan(FaultConfig(seed=0, straggler_rate=1.0))
        policy = RetryPolicy(reading_timeout=0.5)
        value = attempt_reading(
            plan, policy, ("m",), lambda: {"a": 9.0}, perturb=False
        )
        assert value == {"a": 9.0}

    def test_retry_spans_charge_simulated_backoff(self):
        plan = _crashy_plan(1.0)
        policy = RetryPolicy(
            max_attempts=3, backoff_base=0.05, backoff_factor=2.0
        )
        with recording() as rec:
            with pytest.raises(MeasurementFault):
                attempt_reading(plan, policy, ("m",), lambda: 1.0)
        spans = rec.spans_named("retry.attempt")
        assert [s.sim_elapsed for s in spans] == pytest.approx(
            [0.05, 0.10, 0.20]
        )
        assert rec.counters["retry.backoff_sim"] == pytest.approx(0.35)
