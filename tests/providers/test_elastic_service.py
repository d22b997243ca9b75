"""The consolidation service over a capacity provider.

Two contracts:

* **Static identity** — a ``StaticProvider`` day is byte-identical to
  a day with no provider at all: same event log, snapshots, trace, and
  checkpoint bytes.
* **Elastic invariants** — under autoscaling and seeded spot churn, no
  mission-critical tenant ever touches a spot node, and every resident
  job evicted by a reclaim is requeued (never dropped).
"""

import pytest

from repro.core.builder import build_model
from repro.errors import ServiceError
from repro.faults import FaultConfig, FaultPlan
from repro.obs.recorder import recording
from repro.obs.sinks import to_payload
from repro.placement.annealing import AnnealingSchedule
from repro.providers import AutoscalerConfig, ElasticProvider, StaticProvider
from repro.service.loop import ConsolidationService, ServiceConfig
from repro.service.stream import StreamConfig, WorkloadStream
from repro.sim.runner import ClusterRunner
from tests._synthetic import QUIET_NOISE, quiet_runner, synthetic_factory

FAST_SCHEDULE = AnnealingSchedule(iterations=150, restarts=1)

CEILING = 8


@pytest.fixture(scope="module")
def environment():
    runner = quiet_runner(num_nodes=CEILING, factory=synthetic_factory())
    report = build_model(
        runner, ["A", "B"], policy_samples=4, seed=31, span=4
    )
    return runner, report.model


def fresh_runner(environment):
    shared = environment[0]
    return ClusterRunner(
        shared.spec,
        noise=QUIET_NOISE,
        base_seed=shared.base_seed,
        workload_factory=synthetic_factory(),
    )


def make_service(environment, *, provider=None, seed=4, arrival_rate=1.2):
    runner, model = environment
    stream = WorkloadStream(
        StreamConfig(workloads=("A", "B"), arrival_rate=arrival_rate),
        seed=seed,
    )
    return ConsolidationService(
        fresh_runner(environment),
        model,
        stream,
        config=ServiceConfig(schedule=FAST_SCHEDULE),
        seed=seed,
        provider=provider,
    )


def churn_provider(*, rate=0.2, window=1, seed=7, initial=6,
                   autoscaler=True):
    plan = FaultPlan(FaultConfig(
        seed=seed, preemption_rate=rate, preemption_warning_epochs=window,
    ))
    return ElasticProvider(
        CEILING,
        initial_nodes=initial,
        spot_fraction=0.5,
        churn=plan,
        autoscaler=AutoscalerConfig() if autoscaler else None,
    )


class TestConstruction:
    def test_runner_must_match_the_ceiling(self, environment):
        _, model = environment
        stream = WorkloadStream(StreamConfig(workloads=("A",)), seed=1)
        small = quiet_runner(num_nodes=4)
        with pytest.raises(ServiceError, match="ceiling"):
            ConsolidationService(
                small, model, stream, provider=churn_provider()
            )


class TestStaticIdentity:
    """``--provider static`` replays the provider-free day byte for byte."""

    @pytest.fixture(scope="class")
    def days(self, environment):
        outcomes = []
        for provider in (None, StaticProvider(CEILING)):
            service = make_service(environment, provider=provider)
            with recording() as recorder:
                service.run(6)
            outcomes.append((service, to_payload(recorder)))
        return outcomes

    def test_event_logs_identical(self, days):
        (bare, _), (static, _) = days
        assert static.log.to_jsonl() == bare.log.to_jsonl()

    def test_snapshots_identical(self, days):
        (bare, _), (static, _) = days
        assert [s.to_dict() for s in static.snapshots] == [
            s.to_dict() for s in bare.snapshots
        ]
        # No additive provider block leaks into static snapshots.
        assert all(s.to_dict().get("provider") is None
                   for s in static.snapshots)

    def test_traces_identical(self, days):
        (_, bare_trace), (_, static_trace) = days
        assert static_trace == bare_trace
        names = {span["name"] for span in static_trace["spans"]}
        assert not any(name.startswith("provider.") for name in names)
        assert not any(
            key.startswith("provider.")
            for key in list(static_trace["counters"])
            + list(static_trace["gauges"])
        )

    def test_checkpoints_identical(self, days):
        (bare, _), (static, _) = days
        assert static.checkpoint().to_dict() == bare.checkpoint().to_dict()
        (cell,) = static.checkpoint().to_dict()["cells"]
        assert "provider_state" not in cell


class TestElasticDay:
    EPOCHS = 10

    @pytest.fixture(scope="class")
    def day(self, environment):
        service = make_service(
            environment, provider=churn_provider(), arrival_rate=1.6
        )
        with recording() as recorder:
            service.run(self.EPOCHS)
        return service, to_payload(recorder)

    def test_day_exercises_the_elastic_machinery(self, day):
        service, _ = day
        counts = service.log.counts()
        assert counts.get("preempt_warning", 0) > 0
        assert counts.get("preempt_reclaim", 0) > 0
        assert counts.get("autoscale", 0) > 0

    def test_no_mission_critical_tenant_ever_on_spot(self, day):
        service, _ = day
        provider = service.provider
        durable = set(provider.durable_nodes())
        qos_of = {}
        for event in service.log.of_kind("arrival"):
            payload = dict(event.payload)
            qos_of[payload["job"]] = payload["qos_target"]
        for event in service.log.of_kind("admit"):
            payload = dict(event.payload)
            if qos_of[payload["job"]] is not None:
                assert set(payload["nodes"]) <= durable, (
                    f"MC job {payload['job']} admitted onto "
                    f"{payload['nodes']} (durable: {sorted(durable)})"
                )

    def test_every_preempted_job_is_requeued_not_dropped(self, day):
        service, _ = day
        requeues = [
            dict(e.payload) for e in service.log.of_kind("job_requeue")
            if dict(e.payload)["reason"] == "preempted"
        ]
        assert service.preempted_total == len(requeues)
        assert service.requeued_total >= service.preempted_total
        # A requeued job is never rejected for queue depth: no reject
        # carries a preempted job id with reason queue-full.
        preempted_ids = {entry["job"] for entry in requeues}
        for event in service.log.of_kind("reject"):
            payload = dict(event.payload)
            assert not (
                payload["job"] in preempted_ids
                and payload["reason"] == "queue-full"
            )

    def test_snapshot_carries_the_pool_picture(self, day):
        service, _ = day
        block = service.snapshots[-1].to_dict()["provider"]
        assert block["pool_size"] == len(service.provider.live_nodes())
        assert block["preempted_total"] == service.preempted_total
        assert block["requeued_total"] == service.requeued_total
        assert (
            block["durable_nodes"] + block["spot_nodes"]
            == block["pool_size"]
        )

    def test_trace_gains_provider_spans_and_counters(self, day):
        _, trace = day
        names = {span["name"] for span in trace["spans"]}
        assert "provider.capacity" in names
        assert trace["counters"].get("provider.preemptions", 0) > 0
        assert trace["counters"].get("provider.autoscale", 0) > 0
        assert "provider.pool_size" in trace["gauges"]
        assert "provider.spot_fraction" in trace["gauges"]

    def test_day_is_deterministic(self, environment, day):
        service, _ = day
        replay = make_service(
            environment, provider=churn_provider(), arrival_rate=1.6
        )
        replay.run(self.EPOCHS)
        assert replay.log.to_jsonl() == service.log.to_jsonl()
        assert [s.to_dict() for s in replay.snapshots] == [
            s.to_dict() for s in service.snapshots
        ]


class _DelayedChurn(FaultPlan):
    """Rate-1 churn that stays quiet until epoch 2.

    Warning every spot node at epoch 0 would fire before anything is
    admitted; delaying lets tenants land on spot first, so the
    evacuation/requeue path actually has residents to move.
    """

    def preempts(self, node_id, epoch):
        return epoch >= 2 and super().preempts(node_id, epoch)


class TestEvacuation:
    def test_warned_nodes_are_evacuated_or_requeued(self, environment):
        # Every spot node is warned at epoch 2 and reclaimed at epoch
        # 4 (2-epoch window).  Anything resident on spot either
        # migrates off (an evacuation migrate) or is requeued at the
        # reclaim — in all cases the tenancy survives.
        plan = _DelayedChurn(FaultConfig(
            seed=7, preemption_rate=1.0, preemption_warning_epochs=2,
        ))
        provider = ElasticProvider(
            CEILING, initial_nodes=6, spot_fraction=0.5, churn=plan,
        )
        service = make_service(
            environment, provider=provider, arrival_rate=2.0
        )
        service.run(6)
        counts = service.log.counts()
        assert counts.get("preempt_reclaim", 0) > 0
        evacuations = [
            dict(e.payload) for e in service.log.of_kind("migrate")
            if "evacuated_nodes" in dict(e.payload)
        ]
        requeued = service.preempted_total
        assert evacuations or requeued > 0
        # After the reclaim, nothing resident references a dead node.
        live = set(service.provider.live_nodes())
        if service.placement is not None:
            for spec in service.placement.instances:
                assert set(
                    service.placement.nodes_of(spec.instance_key)
                ) <= live

    def test_pool_utilization_uses_the_live_denominator(self, environment):
        service = make_service(
            environment,
            provider=churn_provider(rate=1.0, window=0, autoscaler=False),
            arrival_rate=0.0,
        )
        assert service.live_node_count() == 6
        service.run(1)  # all three spot nodes reclaimed at epoch 0
        assert service.live_node_count() == 3
        assert service.schedulable_node_count() == 3
