"""Checkpoint/resume of an elastic day (mirrors tests/service/test_recovery.py).

The recovery contract extended to the provider layer: a day killed at
an epoch boundary that sits *after* autoscale resizes and *inside* a
preemption warning window must resume byte-identically — pool shape,
draining state, and pending reclaims all travel through
``CellState.provider_state``.
"""

import pytest

from repro.core.builder import build_model
from repro.errors import ConfigurationError, ServiceError
from repro.faults import FaultConfig, FaultPlan
from repro.placement.annealing import AnnealingSchedule
from repro.providers import AutoscalerConfig, ElasticProvider, StaticProvider
from repro.service.checkpoint import ServiceCheckpoint
from repro.service.events import EventLog
from repro.service.loop import ConsolidationService, ServiceConfig
from repro.service.stream import StreamConfig, WorkloadStream
from repro.sim.runner import ClusterRunner
from tests._synthetic import QUIET_NOISE, quiet_runner, synthetic_factory

FAST_SCHEDULE = AnnealingSchedule(iterations=150, restarts=1)

CEILING = 8
BOUNDARY = 4  # the kill epoch: after resizes, inside a warning window
DAY = 8


@pytest.fixture(scope="module")
def environment():
    runner = quiet_runner(num_nodes=CEILING, factory=synthetic_factory())
    report = build_model(
        runner, ["A", "B"], policy_samples=4, seed=31, span=4
    )
    return runner, report.model


def churn_provider():
    # Fresh per service: restore() installs the checkpoint's inventory
    # into the resumed service's own provider instance.
    plan = FaultPlan(FaultConfig(
        seed=7, preemption_rate=0.2, preemption_warning_epochs=2,
    ))
    return ElasticProvider(
        CEILING,
        initial_nodes=6,
        spot_fraction=0.5,
        churn=plan,
        autoscaler=AutoscalerConfig(),
    )


def make_service(environment, *, provider, seed=4, checkpoint_path=None):
    shared, model = environment
    runner = ClusterRunner(
        shared.spec,
        noise=QUIET_NOISE,
        base_seed=shared.base_seed,
        workload_factory=synthetic_factory(),
    )
    stream = WorkloadStream(
        StreamConfig(workloads=("A", "B"), arrival_rate=1.6), seed=seed
    )
    return ConsolidationService(
        runner,
        model,
        stream,
        config=ServiceConfig(schedule=FAST_SCHEDULE),
        seed=seed,
        checkpoint_path=checkpoint_path,
        provider=provider,
    )


class TestProviderStateCapture:
    @pytest.fixture(scope="class")
    def boundary_checkpoint(self, environment):
        service = make_service(environment, provider=churn_provider())
        service.run(BOUNDARY)
        return service, service.checkpoint()

    def test_elastic_checkpoint_carries_provider_state(
        self, boundary_checkpoint
    ):
        service, checkpoint = boundary_checkpoint
        state = checkpoint.to_dict()["cells"][0]["provider_state"]
        assert state == service.provider.state_dict()
        assert state["provider"] == "elastic"
        assert state["max_nodes"] == CEILING

    def test_boundary_is_a_real_churn_boundary(self, boundary_checkpoint):
        # The scenario this module exists for: the kill epoch sits
        # after autoscale resizes with a preemption warning in flight.
        service, checkpoint = boundary_checkpoint
        state = checkpoint.to_dict()["cells"][0]["provider_state"]
        draining = [
            entry for entry in state["instances"]
            if entry["state"] == "draining"
        ]
        assert draining, "no in-flight warning at the boundary"
        assert all(entry["reclaim_epoch"] >= BOUNDARY for entry in draining)
        assert service.log.counts().get("autoscale", 0) > 0

    def test_dict_round_trip_preserves_provider_state(
        self, boundary_checkpoint
    ):
        _, checkpoint = boundary_checkpoint
        rebuilt = ServiceCheckpoint.from_dict(checkpoint.to_dict())
        assert rebuilt.to_dict() == checkpoint.to_dict()

    def test_counters_cover_preemption_bookkeeping(
        self, boundary_checkpoint
    ):
        service, checkpoint = boundary_checkpoint
        counters = checkpoint.to_dict()["cells"][0]["counters"]
        assert counters["preempted"] == service.preempted_total
        assert counters["requeued"] == service.requeued_total


class TestRestoreValidation:
    def test_elastic_service_rejects_a_stateless_checkpoint(
        self, environment
    ):
        donor = make_service(environment, provider=None)
        donor.run(2)
        checkpoint = donor.checkpoint()
        assert "provider_state" not in checkpoint.to_dict()["cells"][0]
        fresh = make_service(environment, provider=churn_provider())
        with pytest.raises(ServiceError, match="provider"):
            fresh.restore(checkpoint, log=donor.log)

    def test_providerless_service_rejects_provider_state(self, environment):
        donor = make_service(environment, provider=churn_provider())
        donor.run(2)
        checkpoint = donor.checkpoint()
        fresh = make_service(environment, provider=None)
        with pytest.raises(ServiceError, match="provider"):
            fresh.restore(checkpoint, log=donor.log)

    def test_mismatched_churn_plan_is_rejected(self, environment):
        donor = make_service(environment, provider=churn_provider())
        donor.run(2)
        checkpoint = donor.checkpoint()
        other = ElasticProvider(
            CEILING,
            initial_nodes=6,
            spot_fraction=0.5,
            churn=FaultPlan(FaultConfig(seed=99, preemption_rate=0.2)),
            autoscaler=AutoscalerConfig(),
        )
        fresh = make_service(environment, provider=other)
        with pytest.raises(ConfigurationError, match="churn"):
            fresh.restore(checkpoint, log=donor.log)

    def test_static_provider_checkpoints_like_no_provider(self, environment):
        service = make_service(environment, provider=StaticProvider(CEILING))
        service.run(2)
        checkpoint = service.checkpoint()
        assert "provider_state" not in checkpoint.to_dict()["cells"][0]
        # And restores into a fresh static-provider service cleanly.
        resumed = make_service(
            environment, provider=StaticProvider(CEILING)
        )
        resumed.restore(checkpoint, log=service.log)
        assert resumed.epochs_run == 2


class TestElasticResumeIdentity:
    """A churn day killed mid-warning replays byte for byte."""

    @pytest.fixture(scope="class")
    def uninterrupted(self, environment):
        service = make_service(environment, provider=churn_provider())
        service.run(DAY)
        return service

    def test_interrupted_churn_day_is_byte_identical(
        self, environment, uninterrupted, tmp_path
    ):
        checkpoint_path = str(tmp_path / "service.ckpt")
        log_path = str(tmp_path / "events.jsonl")

        first = make_service(
            environment,
            provider=churn_provider(),
            checkpoint_path=checkpoint_path,
        )
        first.log.attach(log_path)
        first.run(BOUNDARY)
        first.log.detach()
        # Hard kill mid-append: the file gains a torn final line.
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write('{"epoch": 4, "se')

        checkpoint = ServiceCheckpoint.load(checkpoint_path)
        assert checkpoint.epoch == BOUNDARY
        assert checkpoint.to_dict()["cells"][0]["provider_state"] is not None
        recovered = EventLog.recover(log_path)
        resumed = make_service(
            environment,
            provider=churn_provider(),
            checkpoint_path=checkpoint_path,
        )
        resumed.restore(checkpoint, log=recovered)
        assert resumed.epochs_run == BOUNDARY
        # The resumed provider carries the donor's pool shape — the
        # resize and the in-flight warning — not its own epoch-0 one.
        assert (
            resumed.provider.state_dict()
            == checkpoint.to_dict()["cells"][0]["provider_state"]
        )
        resumed.log.attach(log_path)
        resumed.run(DAY - BOUNDARY)
        resumed.log.detach()

        expected = uninterrupted.log.to_jsonl()
        assert resumed.log.to_jsonl() == expected
        with open(log_path, "r", encoding="utf-8") as handle:
            assert handle.read() == expected
        assert [s.to_dict() for s in resumed.snapshots] == [
            s.to_dict() for s in uninterrupted.snapshots
        ]
        final = ServiceCheckpoint.load(checkpoint_path)
        assert final.epoch == DAY
        assert (
            final.to_dict()["cells"][0]["provider_state"]
            == uninterrupted.provider.state_dict()
        )

    def test_run_split_without_crash_is_also_identical(
        self, environment, uninterrupted
    ):
        split = make_service(environment, provider=churn_provider())
        split.run(BOUNDARY)
        split.run(DAY - BOUNDARY)
        assert split.log.to_jsonl() == uninterrupted.log.to_jsonl()
