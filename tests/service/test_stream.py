"""Tests for jobs and the seeded workload stream."""

import pytest

from repro.errors import ServiceError
from repro.service.jobs import Job
from repro.service.stream import FixedStream, StreamConfig, WorkloadStream

CONFIG = StreamConfig(
    workloads=("M.lmps", "M.milc", "H.KM"),
    arrival_rate=1.5,
    qos_fraction=0.5,
)


class TestJob:
    def test_instance_spec_mirrors_job(self):
        job = Job("j0", "M.lmps", num_units=2, weight=2.0)
        spec = job.instance_spec()
        assert spec.instance_key == "j0"
        assert spec.workload == "M.lmps"
        assert spec.num_units == 2
        assert spec.weight == 2.0

    def test_qos_constraint_only_for_mission_critical(self):
        best_effort = Job("j0", "M.lmps")
        assert not best_effort.mission_critical
        assert best_effort.qos_constraint() is None
        critical = Job("j1", "M.lmps", qos_target=1.25)
        assert critical.mission_critical
        constraint = critical.qos_constraint()
        assert constraint is not None
        assert constraint.instance_key == "j1"
        assert constraint.max_normalized_time == 1.25

    def test_validation(self):
        with pytest.raises(ServiceError):
            Job("j0", "M.lmps", num_units=0)
        with pytest.raises(ServiceError):
            Job("j0", "M.lmps", duration_epochs=0)
        with pytest.raises(ServiceError):
            Job("j0", "M.lmps", arrival_epoch=-1)
        with pytest.raises(ServiceError):
            Job("j0", "M.lmps", qos_target=0.9)


class TestStreamConfig:
    def test_validation(self):
        with pytest.raises(ServiceError):
            StreamConfig(workloads=())
        with pytest.raises(ServiceError):
            StreamConfig(workloads=("a",), arrival_rate=-1.0)
        with pytest.raises(ServiceError):
            StreamConfig(workloads=("a",), unit_choices=(0,))
        with pytest.raises(ServiceError):
            StreamConfig(workloads=("a",), duration_range=(3, 2))
        with pytest.raises(ServiceError):
            StreamConfig(workloads=("a",), qos_fraction=1.5)
        with pytest.raises(ServiceError):
            StreamConfig(workloads=("a",), qos_targets=(0.5,))
        with pytest.raises(ServiceError):
            StreamConfig(workloads=("a",), qos_targets=(float("nan"),))


class TestWorkloadStream:
    def test_same_seed_same_traffic(self):
        first = WorkloadStream(CONFIG, seed=7)
        second = WorkloadStream(CONFIG, seed=7)
        for epoch in range(6):
            assert first.arrivals(epoch) == second.arrivals(epoch)

    def test_epochs_independent_of_query_order(self):
        stream = WorkloadStream(CONFIG, seed=7)
        later_first = stream.arrivals(5)
        stream.arrivals(0)
        stream.arrivals(3)
        assert stream.arrivals(5) == later_first

    def test_different_seeds_differ(self):
        a = WorkloadStream(CONFIG, seed=1)
        b = WorkloadStream(CONFIG, seed=2)
        assert any(a.arrivals(e) != b.arrivals(e) for e in range(8))

    def test_jobs_are_well_formed(self):
        stream = WorkloadStream(CONFIG, seed=3)
        seen_ids = set()
        for epoch in range(10):
            for job in stream.arrivals(epoch):
                assert job.arrival_epoch == epoch
                assert job.workload in CONFIG.workloads
                assert job.num_units in CONFIG.unit_choices
                low, high = CONFIG.duration_range
                assert low <= job.duration_epochs <= high
                assert job.job_id not in seen_ids
                seen_ids.add(job.job_id)

    def test_qos_fraction_extremes(self):
        none = WorkloadStream(
            StreamConfig(workloads=("a",), arrival_rate=2.0, qos_fraction=0.0),
            seed=5,
        )
        every = WorkloadStream(
            StreamConfig(workloads=("a",), arrival_rate=2.0, qos_fraction=1.0),
            seed=5,
        )
        none_jobs = [j for e in range(10) for j in none.arrivals(e)]
        every_jobs = [j for e in range(10) for j in every.arrivals(e)]
        assert none_jobs and every_jobs
        assert all(not j.mission_critical for j in none_jobs)
        assert all(j.mission_critical for j in every_jobs)

    def test_rejects_negative_epoch(self):
        with pytest.raises(ServiceError):
            WorkloadStream(CONFIG, seed=1).arrivals(-1)


class TestFixedStream:
    def test_filters_by_arrival_epoch(self):
        jobs = (
            Job("a", "M.lmps", arrival_epoch=0),
            Job("b", "M.lmps", arrival_epoch=2),
            Job("c", "M.milc", arrival_epoch=2),
        )
        stream = FixedStream(jobs)
        assert [j.job_id for j in stream.arrivals(0)] == ["a"]
        assert stream.arrivals(1) == []
        assert [j.job_id for j in stream.arrivals(2)] == ["b", "c"]
