"""Tests for deterministic fault plans."""

import json
from pathlib import Path

import pytest

from repro.errors import FaultError
from repro.faults import FAULT_FAMILIES, FaultConfig, FaultPlan
from tests._synthetic import hostile_plan

#: The plans the smoke jobs and the reference-day benchmark load.
CHECKED_IN_PLANS = sorted(
    (Path(__file__).resolve().parents[2] / "benchmarks" / "baselines")
    .glob("*plan*.json")
)


class TestFaultConfig:
    def test_defaults_inject_nothing(self):
        plan = FaultPlan(FaultConfig())
        assert not plan.enabled
        assert not plan.crashes(("a",), 0)
        assert plan.straggler(("a",), 0) == 1.0
        assert plan.outlier(("a",), 0) == 1.0

    @pytest.mark.parametrize("field", [
        "crash_rate", "straggler_rate", "outlier_rate",
    ])
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(FaultError):
            FaultConfig(**{field: -0.1})
        with pytest.raises(FaultError):
            FaultConfig(**{field: 1.5})

    def test_straggler_factor_must_slow_down(self):
        with pytest.raises(FaultError):
            FaultConfig(straggler_factor=0.9)

    def test_outlier_factor_must_be_positive(self):
        with pytest.raises(FaultError):
            FaultConfig(outlier_factor=0.0)


class TestDeterminism:
    def test_decisions_are_pure_functions_of_labels(self):
        a = hostile_plan(seed=7)
        b = hostile_plan(seed=7)
        labels = [("measure", "app", rep) for rep in range(50)]
        assert [a.crashes(l, 0) for l in labels] == [
            b.crashes(l, 0) for l in labels
        ]
        assert [a.straggler(l, 1) for l in labels] == [
            b.straggler(l, 1) for l in labels
        ]
        assert [a.outlier(l, 0) for l in labels] == [
            b.outlier(l, 0) for l in labels
        ]

    def test_decisions_independent_of_query_order(self):
        plan = hostile_plan(seed=3)
        first = plan.crashes(("x",), 0)
        # Interleave unrelated queries; the original decision must hold.
        for rep in range(20):
            plan.crashes(("y", rep), 0)
            plan.straggler(("z", rep), 0)
        assert plan.crashes(("x",), 0) == first

    def test_families_draw_independent_streams(self):
        # Zeroing one family's rate must not change another family's
        # decisions: each family derives its own stream.
        full = hostile_plan(seed=11)
        crash_only = FaultPlan(FaultConfig(seed=11, crash_rate=0.15))
        labels = [("m", rep) for rep in range(100)]
        assert [full.crashes(l, 0) for l in labels] == [
            crash_only.crashes(l, 0) for l in labels
        ]

    def test_different_seeds_differ(self):
        a, b = hostile_plan(seed=1), hostile_plan(seed=2)
        labels = [("m", rep) for rep in range(200)]
        assert [a.crashes(l, 0) for l in labels] != [
            b.crashes(l, 0) for l in labels
        ]

    def test_rates_are_hit_in_the_long_run(self):
        plan = FaultPlan(FaultConfig(seed=0, crash_rate=0.25))
        crashes = sum(
            plan.crashes(("m", rep), 0) for rep in range(2000)
        )
        assert 0.2 < crashes / 2000 < 0.3


class TestSerialization:
    def test_round_trip(self, tmp_path):
        plan = hostile_plan(seed=42, scale=0.5)
        assert plan.config.crash_rate == pytest.approx(0.075)
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = FaultPlan.load(path)
        assert loaded.config == plan.config
        assert loaded.signature() == plan.signature()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(FaultError, match="crash_rat"):
            FaultPlan.from_dict({"crash_rat": 0.5})

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{torn")
        with pytest.raises(FaultError, match="not valid JSON"):
            FaultPlan.load(path)

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps([1, 2]))
        with pytest.raises(FaultError, match="JSON object"):
            FaultPlan.load(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FaultError, match="cannot read"):
            FaultPlan.load(tmp_path / "absent.json")

    def test_signature_distinguishes_plans(self):
        assert (
            hostile_plan(seed=1).signature()
            != hostile_plan(seed=2).signature()
        )
        assert (
            hostile_plan(seed=1).signature()
            != hostile_plan(seed=1, scale=2.0).signature()
        )

    def test_families_constant_is_exhaustive(self):
        assert FAULT_FAMILIES == (
            "crash", "straggler", "outlier", "worker", "lease", "preempt",
        )


@pytest.mark.parametrize(
    "path", CHECKED_IN_PLANS, ids=[path.name for path in CHECKED_IN_PLANS]
)
def test_checked_in_plan_loads(path):
    assert FaultPlan.load(path).enabled


class TestDaemonFamilies:
    def test_defaults_inject_nothing(self):
        plan = FaultPlan(FaultConfig())
        assert not plan.worker_crashes(0, 0)
        assert not plan.lease_expires(0, 0)

    @pytest.mark.parametrize("field", [
        "worker_crash_rate", "lease_expiry_rate",
    ])
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(FaultError):
            FaultConfig(**{field: -0.1})
        with pytest.raises(FaultError):
            FaultConfig(**{field: 1.5})

    def test_either_rate_enables_the_plan(self):
        assert FaultPlan(FaultConfig(worker_crash_rate=0.1)).enabled
        assert FaultPlan(FaultConfig(lease_expiry_rate=0.1)).enabled

    def test_decisions_are_pure_functions_of_epoch_and_attempt(self):
        a = FaultPlan(FaultConfig(
            seed=7, worker_crash_rate=0.4, lease_expiry_rate=0.4
        ))
        b = FaultPlan(FaultConfig(
            seed=7, worker_crash_rate=0.4, lease_expiry_rate=0.4
        ))
        draws = [(e, att) for e in range(20) for att in range(3)]
        assert [a.worker_crashes(e, att) for e, att in draws] == [
            b.worker_crashes(e, att) for e, att in draws
        ]
        assert [a.lease_expires(e, att) for e, att in draws] == [
            b.lease_expires(e, att) for e, att in draws
        ]

    def test_daemon_draws_leave_measurement_families_untouched(self):
        # Adding daemon fault rates to a plan must not perturb the
        # measurement-path decisions: the byte-identity contract relies
        # on worker/lease deriving their own streams.
        quiet = FaultPlan(FaultConfig(seed=11, crash_rate=0.15))
        noisy = FaultPlan(FaultConfig(
            seed=11, crash_rate=0.15,
            worker_crash_rate=0.9, lease_expiry_rate=0.9,
        ))
        labels = [("m", rep) for rep in range(100)]
        assert [quiet.crashes(l, 0) for l in labels] == [
            noisy.crashes(l, 0) for l in labels
        ]
        assert [quiet.straggler(l, 0) for l in labels] == [
            noisy.straggler(l, 0) for l in labels
        ]

    def test_rates_are_hit_in_the_long_run(self):
        plan = FaultPlan(FaultConfig(seed=0, worker_crash_rate=0.25))
        crashed = sum(
            plan.worker_crashes(epoch, 0) for epoch in range(2000)
        )
        assert 0.2 < crashed / 2000 < 0.3

    def test_signature_covers_daemon_rates(self):
        base = FaultPlan(FaultConfig(seed=1))
        assert (
            base.signature()
            != FaultPlan(FaultConfig(seed=1, worker_crash_rate=0.1)).signature()
        )
        assert (
            base.signature()
            != FaultPlan(FaultConfig(seed=1, lease_expiry_rate=0.1)).signature()
        )

    def test_round_trip_preserves_daemon_rates(self, tmp_path):
        plan = FaultPlan(FaultConfig(
            seed=42, worker_crash_rate=0.2, lease_expiry_rate=0.3
        ))
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = FaultPlan.load(path)
        assert loaded.config == plan.config
        assert loaded.config.worker_crash_rate == 0.2
        assert loaded.config.lease_expiry_rate == 0.3
