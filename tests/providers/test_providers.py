"""Unit tests for the capacity-provider layer."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultConfig, FaultPlan
from repro.providers import (
    DRAINING,
    DURABLE,
    LIVE,
    SPOT,
    AutoscalerConfig,
    ElasticProvider,
    ProviderInstance,
    StaticProvider,
)
from repro.providers.autoscaler import decide


def churn_plan(rate=1.0, window=1, seed=7):
    return FaultPlan(FaultConfig(
        seed=seed, preemption_rate=rate, preemption_warning_epochs=window,
    ))


class TestStaticProvider:
    def test_fixed_all_durable_pool(self):
        provider = StaticProvider(4)
        assert not provider.elastic
        assert provider.max_nodes == 4
        assert provider.live_nodes() == [0, 1, 2, 3]
        assert provider.schedulable_nodes() == [0, 1, 2, 3]
        assert provider.durable_nodes() == [0, 1, 2, 3]
        assert not any(provider.is_spot(n) for n in range(4))

    def test_rejects_nonpositive_pool(self):
        with pytest.raises(ConfigurationError):
            StaticProvider(0)


class TestGrowShrink:
    def test_grow_takes_lowest_free_ids(self):
        provider = ElasticProvider(8, initial_nodes=4, spot_fraction=0.5)
        events = provider.grow(2, epoch=3)
        assert len(events) == 1
        assert events[0].kind == "node_join"
        assert events[0].nodes == (4, 5)
        assert events[0].node_class == SPOT
        assert dict(events[0].details)["pool_size"] == 6
        assert provider.live_nodes() == [0, 1, 2, 3, 4, 5]

    def test_grow_reuses_released_ids(self):
        provider = ElasticProvider(6, initial_nodes=6, spot_fraction=0.5)
        provider.shrink([4], epoch=1)
        events = provider.grow(2, epoch=2)
        assert events[0].nodes == (4,)  # only one slot left below ceiling
        launched = {i.node_id: i for i in provider.instances()}
        assert launched[4].launched_epoch == 2

    def test_grow_bounded_by_ceiling(self):
        provider = ElasticProvider(4, initial_nodes=4)
        assert provider.grow(1, epoch=0) == []

    def test_shrink_emits_node_leave(self):
        provider = ElasticProvider(6, initial_nodes=6, spot_fraction=0.5)
        events = provider.shrink([5, 4], epoch=2)
        assert events[0].kind == "node_leave"
        assert events[0].nodes == (4, 5)
        assert events[0].reason == "autoscale"
        assert provider.live_nodes() == [0, 1, 2, 3]

    def test_shrink_of_unknown_nodes_is_a_noop(self):
        provider = ElasticProvider(4, initial_nodes=2)
        assert provider.shrink([9], epoch=0) == []


class TestElasticConstruction:
    def test_durable_takes_the_low_ids(self):
        provider = ElasticProvider(8, initial_nodes=6, spot_fraction=0.5)
        assert provider.durable_nodes() == [0, 1, 2]
        assert [n for n in provider.live_nodes() if provider.is_spot(n)] == [
            3, 4, 5,
        ]

    def test_at_least_one_durable_node(self):
        provider = ElasticProvider(4, initial_nodes=2, spot_fraction=1.0)
        assert provider.durable_nodes() == [0]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            ElasticProvider(4, initial_nodes=0)
        with pytest.raises(ConfigurationError):
            ElasticProvider(4, initial_nodes=5)
        with pytest.raises(ConfigurationError):
            ElasticProvider(4, spot_fraction=1.5)


class TestAutoscalerPolicy:
    CONFIG = AutoscalerConfig()

    def test_holds_when_quiet(self):
        action, count, victims, _ = decide(
            self.CONFIG, queue_depth=0, qos_margin=1.0,
            live_count=4, max_nodes=8, idle_spot=[],
        )
        assert action == "hold" and count == 0 and victims == []

    def test_grows_on_queue_depth(self):
        action, count, _, reason = decide(
            self.CONFIG, queue_depth=3, qos_margin=None,
            live_count=4, max_nodes=8, idle_spot=[],
        )
        assert action == "grow" and count == self.CONFIG.grow_step
        assert "queue" in reason

    def test_grows_on_thin_qos_margin(self):
        action, _, _, reason = decide(
            self.CONFIG, queue_depth=0, qos_margin=0.01,
            live_count=4, max_nodes=8, idle_spot=[],
        )
        assert action == "grow"
        assert "margin" in reason

    def test_shrinks_idle_spot_highest_first(self):
        action, _, victims, _ = decide(
            self.CONFIG, queue_depth=0, qos_margin=None,
            live_count=6, max_nodes=8, idle_spot=[3, 5, 4],
        )
        assert action == "shrink"
        assert victims == [5]

    def test_never_shrinks_below_min_nodes(self):
        config = AutoscalerConfig(min_nodes=4)
        action, _, _, _ = decide(
            config, queue_depth=0, qos_margin=None,
            live_count=4, max_nodes=8, idle_spot=[3],
        )
        assert action == "hold"


class TestElasticAutoscale:
    def test_grow_emits_autoscale_then_join(self):
        provider = ElasticProvider(
            8, initial_nodes=4, spot_fraction=0.5,
            autoscaler=AutoscalerConfig(),
        )
        events = provider.step(1, queue_depth=5, idle_nodes=[])
        assert [e.kind for e in events] == ["autoscale", "node_join"]
        assert dict(events[0].details)["action"] == "grow"
        assert events[0].nodes == events[1].nodes
        assert events[1].node_class == SPOT

    def test_shrink_releases_only_idle_spot(self):
        provider = ElasticProvider(
            8, initial_nodes=6, spot_fraction=0.5,
            autoscaler=AutoscalerConfig(),
        )
        # Node 0 is durable; idle durable capacity is never released.
        events = provider.step(1, queue_depth=0, idle_nodes=[0, 5])
        assert [e.kind for e in events] == ["autoscale", "node_leave"]
        assert events[1].nodes == (5,)
        assert provider.durable_nodes() == [0, 1, 2]

    def test_no_autoscaler_means_no_scaling(self):
        provider = ElasticProvider(8, initial_nodes=4)
        assert provider.step(1, queue_depth=50, idle_nodes=[]) == []


class TestTwoPhasePreemption:
    def test_warning_then_reclaim_after_the_window(self):
        provider = ElasticProvider(
            4, initial_nodes=4, spot_fraction=0.5,
            churn=churn_plan(rate=1.0, window=2),
        )
        events = provider.poll(0)
        assert [e.kind for e in events] == ["preempt_warning"]
        assert events[0].nodes == (2, 3)
        assert dict(events[0].details)["reclaim_epoch"] == 2
        # Warned instances keep executing but accept no new work.
        assert provider.live_nodes() == [0, 1, 2, 3]
        assert provider.schedulable_nodes() == [0, 1]
        assert provider.is_draining(2) and provider.is_draining(3)

        assert provider.poll(1) == []  # already draining: no re-warning
        events = provider.poll(2)
        assert [e.kind for e in events] == ["preempt_reclaim"]
        assert events[0].nodes == (2, 3)
        assert provider.live_nodes() == [0, 1]

    def test_zero_window_reclaims_in_the_same_poll(self):
        provider = ElasticProvider(
            4, initial_nodes=4, spot_fraction=0.5,
            churn=churn_plan(rate=1.0, window=0),
        )
        events = provider.poll(0)
        assert [e.kind for e in events] == [
            "preempt_warning", "preempt_reclaim",
        ]
        assert provider.live_nodes() == [0, 1]

    def test_durable_nodes_are_never_preempted(self):
        provider = ElasticProvider(
            4, initial_nodes=4, spot_fraction=0.5,
            churn=churn_plan(rate=1.0, window=0),
        )
        for epoch in range(5):
            provider.poll(epoch)
        assert provider.live_nodes() == provider.durable_nodes() == [0, 1]

    def test_no_churn_plan_means_no_preemption(self):
        provider = ElasticProvider(4, initial_nodes=4, spot_fraction=0.5)
        assert all(provider.poll(epoch) == [] for epoch in range(5))

    def test_draws_are_deterministic(self):
        def day():
            provider = ElasticProvider(
                8, initial_nodes=8, spot_fraction=0.75,
                churn=churn_plan(rate=0.3, window=1, seed=11),
            )
            return [
                tuple((e.kind, e.nodes) for e in provider.poll(epoch))
                for epoch in range(6)
            ]

        first, second = day(), day()
        assert first == second
        assert any(first)  # the plan actually fires at this rate/seed


class TestSerialization:
    def test_round_trip_mid_warning_window(self):
        provider = ElasticProvider(
            6, initial_nodes=6, spot_fraction=0.5,
            churn=churn_plan(rate=1.0, window=3),
        )
        provider.poll(0)  # all spot now draining toward epoch 3
        state = provider.state_dict()

        rebuilt = ElasticProvider(
            6, initial_nodes=6, spot_fraction=0.5,
            churn=churn_plan(rate=1.0, window=3),
        )
        rebuilt.load_state(state)
        assert rebuilt.state_dict() == state
        assert rebuilt.schedulable_nodes() == provider.schedulable_nodes()
        assert [e.kind for e in rebuilt.poll(3)] == ["preempt_reclaim"]

    def test_reclaim_epoch_omitted_when_live(self):
        entry = ProviderInstance(node_id=0).to_dict()
        assert "reclaim_epoch" not in entry
        draining = ProviderInstance(
            node_id=1, node_class=SPOT, state=DRAINING, reclaim_epoch=4,
        ).to_dict()
        assert draining["reclaim_epoch"] == 4
        assert ProviderInstance.from_dict(draining).reclaim_epoch == 4

    def test_load_rejects_mismatched_identity(self):
        state = ElasticProvider(4).state_dict()
        with pytest.raises(ConfigurationError, match="max_nodes"):
            ElasticProvider(8).load_state(state)
        with pytest.raises(ConfigurationError, match="provider"):
            StaticProvider(4).load_state(state)

    def test_load_rejects_mismatched_churn_plan(self):
        donor = ElasticProvider(4, churn=churn_plan(rate=0.5, seed=1))
        state = donor.state_dict()
        other = ElasticProvider(4, churn=churn_plan(rate=0.5, seed=2))
        with pytest.raises(ConfigurationError, match="churn"):
            other.load_state(state)
        with pytest.raises(ConfigurationError, match="churn"):
            ElasticProvider(4).load_state(state)

    def test_load_rejects_malformed_state(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            StaticProvider(4).load_state({"provider": "static"})
        with pytest.raises(ConfigurationError):
            ProviderInstance.from_dict({"node_id": 0, "node_class": "gold",
                                        "launched_epoch": 0, "state": LIVE})


class TestPreemptFamilyDraws:
    def test_zero_rate_never_fires(self):
        plan = churn_plan(rate=0.0)
        assert not any(plan.preempts(n, e) for n in range(8) for e in range(8))

    def test_independent_of_other_families(self):
        # Enabling measurement-fault families must not perturb the
        # preempt stream: the same churn day replays identically.
        quiet = FaultPlan(FaultConfig(seed=5, preemption_rate=0.4))
        noisy = FaultPlan(FaultConfig(
            seed=5, preemption_rate=0.4, crash_rate=0.9, straggler_rate=0.9,
        ))
        draws = [(n, e) for n in range(6) for e in range(10)]
        assert [quiet.preempts(n, e) for n, e in draws] == [
            noisy.preempts(n, e) for n, e in draws
        ]

    def test_signature_covers_preemption_knobs(self):
        base = FaultPlan(FaultConfig(seed=0)).signature()
        churned = FaultPlan(
            FaultConfig(seed=0, preemption_rate=0.2)
        ).signature()
        windowed = FaultPlan(FaultConfig(
            seed=0, preemption_rate=0.2, preemption_warning_epochs=4,
        )).signature()
        assert len({base, churned, windowed}) == 3


class TestElasticStep:
    def test_step_orders_autoscale_before_poll(self):
        calls = []

        class Probe(ElasticProvider):
            def autoscale(self, epoch, **kwargs):
                calls.append("autoscale")
                return []

            def poll(self, epoch):
                calls.append("poll")
                return []

        Probe(2).step(0)
        assert calls == ["autoscale", "poll"]
