"""Tests for the workload/program abstractions."""

import pytest

from repro.apps.base import Stage, WorkloadSpec
from repro.errors import ConfigurationError
from tests._synthetic import bsp_workload, synthetic_spec


class TestStage:
    def test_invalid_tasks(self):
        with pytest.raises(ConfigurationError):
            Stage(name="s", n_tasks=0, task_time=1.0)

    def test_invalid_task_time(self):
        with pytest.raises(ConfigurationError):
            Stage(name="s", n_tasks=1, task_time=0.0)

    def test_invalid_sync_cost(self):
        with pytest.raises(ConfigurationError):
            Stage(name="s", n_tasks=1, task_time=1.0, sync_cost=-1.0)

    def test_frozen(self):
        stage = Stage(name="s", n_tasks=1, task_time=1.0)
        with pytest.raises(AttributeError):
            stage.n_tasks = 2


class TestWorkloadSpec:
    def test_valid(self):
        spec = synthetic_spec()
        assert spec.generated_pressure == 2.0

    def test_negative_pressure(self):
        with pytest.raises(ValueError):
            synthetic_spec(score=-1.0)

    def test_invalid_base_time(self):
        with pytest.raises(ConfigurationError):
            synthetic_spec(base_time=0.0)

    def test_invalid_noise(self):
        with pytest.raises(ConfigurationError):
            synthetic_spec(noise_cv=-0.1)

    def test_invalid_master_factor(self):
        with pytest.raises(ConfigurationError):
            synthetic_spec(master_factor=1.5)

    def test_invalid_slots(self):
        with pytest.raises(ConfigurationError):
            synthetic_spec(slots_per_unit=0)


class TestWorkload:
    def test_name_is_abbrev(self):
        workload = bsp_workload("myapp")
        assert workload.name == "myapp"

    def test_not_passive_by_default(self):
        assert not bsp_workload().is_passive

    def test_master_pressure_discount(self):
        workload = bsp_workload("h", master_factor=0.3, score=1.0)
        assert workload.generated_pressure_for(0) == pytest.approx(0.3)
        assert workload.generated_pressure_for(1) == 1.0

    def test_no_discount_for_mpi(self):
        workload = bsp_workload("m", master_factor=1.0, score=2.0)
        assert workload.generated_pressure_for(0) == 2.0
