"""Tests for the per-resource (NETWORK domain) prediction API.

The contract under test has three parts: NETWORK-domain queries read
the per-link matrix through the ALL-max policy, combined predictions
multiply the compute estimate by the link-contention factor exactly
once per item, and every batch surface stays bit-identical to its
scalar counterpart.  Flat-network behaviour is covered separately in
``tests/integration/test_network_pipeline.py``.
"""

import numpy as np
import pytest

from repro.cluster.cluster import ClusterSpec
from repro.cluster.contention import ContentionDomain
from repro.core.curves import HomogeneousSetting, PropagationMatrix
from repro.core.model import NETWORK_POLICY, InterferenceModel, InterferenceProfile
from repro.core.online import OnlineModel
from repro.errors import ModelError
from repro.placement.assignment import InstanceSpec, Placement


def compute_matrix():
    pressures = [2.0, 4.0, 8.0]
    counts = [0.0, 1.0, 2.0, 3.0, 4.0]
    values = np.array(
        [
            [1.0, 1.05, 1.10, 1.15, 1.20],
            [1.0, 1.10, 1.20, 1.30, 1.40],
            [1.0, 1.20, 1.40, 1.60, 1.80],
        ]
    )
    return PropagationMatrix(pressures, counts, values)


def network_matrix():
    # Deliberately different from the compute matrix so a query that
    # consults the wrong domain is caught by value, not just by policy.
    pressures = [2.0, 4.0, 8.0]
    counts = [0.0, 1.0, 2.0, 3.0, 4.0]
    values = np.array(
        [
            [1.0, 1.02, 1.04, 1.06, 1.08],
            [1.0, 1.08, 1.16, 1.24, 1.32],
            [1.0, 1.25, 1.50, 1.75, 2.00],
        ]
    )
    return PropagationMatrix(pressures, counts, values)


def net_profile(workload="app", *, policy="N+1 MAX", score=3.0, net_score=4.0):
    return InterferenceProfile(
        workload=workload,
        matrix=compute_matrix(),
        policy_name=policy,
        bubble_score=score,
        network_matrix=network_matrix(),
        network_score=net_score,
    )


def flat_profile(workload="plain", *, score=2.0):
    return InterferenceProfile(
        workload=workload,
        matrix=compute_matrix(),
        policy_name="N+1 MAX",
        bubble_score=score,
    )


def model_with(*profiles):
    return InterferenceModel({p.workload: p for p in profiles})


class TestDomainDispatch:
    def test_network_homogeneous_reads_network_matrix(self):
        model = model_with(net_profile())
        assert model.predict(
            "app", (4.0, 2.0), domain=ContentionDomain.NETWORK
        ) == pytest.approx(1.16)
        # Same setting, compute domain: the other matrix.
        assert model.predict("app", (4.0, 2.0)) == pytest.approx(1.2)

    def test_domain_accepts_strings(self):
        model = model_with(net_profile())
        assert model.predict("app", (4.0, 2.0), domain="network") == model.predict(
            "app", (4.0, 2.0), domain=ContentionDomain.NETWORK
        )

    def test_network_heterogeneous_uses_all_max(self):
        # Compute: [8, 2, 0, 0] under N+1 MAX -> (8, 2) -> 1.40.
        # Network: ALL-max regardless of the compute policy ->
        # (8, 4) -> 2.00 on the network matrix.
        model = model_with(net_profile(policy="N+1 MAX"))
        assert model.predict("app", [8, 2, 0, 0]) == pytest.approx(1.4)
        assert model.predict(
            "app", [8, 2, 0, 0], domain=ContentionDomain.NETWORK
        ) == pytest.approx(2.0)

    def test_network_policy_constant(self):
        assert NETWORK_POLICY == "ALL MAX"

    def test_unprofiled_network_target_raises(self):
        model = model_with(net_profile(), flat_profile())
        with pytest.raises(ModelError, match="no network profile"):
            model.predict(
                "plain", (4.0, 2.0), domain=ContentionDomain.NETWORK
            )

    def test_has_network_tracks_profiles(self):
        model = model_with(flat_profile())
        assert not model.has_network
        model.add_profile(net_profile())
        assert model.has_network


class TestCombinedPredictions:
    def make_model(self):
        return model_with(
            net_profile("app"), net_profile("src", score=4.0, net_score=8.0),
            flat_profile("plain"),
        )

    def test_combined_is_compute_times_network_factor(self):
        model = self.make_model()
        nodes = [0, 1]
        co_runners = {0: ["src"], 1: []}
        compute = model.predict_heterogeneous(
            "app", model.pressure_vector(nodes, co_runners)
        )
        factor = model.predict(
            "app",
            model.network_pressure_vector(nodes, co_runners),
            domain=ContentionDomain.NETWORK,
        )
        combined = model.predict_under_corunners("app", nodes, co_runners)
        assert combined == compute * factor
        assert combined > compute

    def test_flat_target_degrades_to_compute_only(self):
        model = self.make_model()
        nodes = [0, 1]
        co_runners = {0: ["src"], 1: ["app"]}
        compute = model.predict_heterogeneous(
            "plain", model.pressure_vector(nodes, co_runners)
        )
        assert model.predict_under_corunners(
            "plain", nodes, co_runners
        ) == compute

    def test_network_pressure_vector_uses_network_scores(self):
        model = self.make_model()
        vector = model.network_pressure_vector(
            [0, 1], {0: ["src"], 1: ["plain"]}
        )
        assert vector[0] == 8.0   # src's network score
        assert vector[1] == 0.0   # plain has no network score


class TestBatchScalarIdentity:
    def make_model(self):
        return model_with(
            net_profile("app"), net_profile("src", net_score=6.0),
            flat_profile("plain"),
        )

    def test_predict_batch_network_domain(self):
        model = self.make_model()
        requests = [
            ("app", (4.0, 2.0)),
            ("src", [8.0, 2.0, 0.0, 0.0]),
            ("app", HomogeneousSetting(2.0, 3.0)),
        ]
        batch = model.predict_batch(
            requests, domain=ContentionDomain.NETWORK
        )
        for value, (workload, interference) in zip(batch, requests):
            assert value == model.predict(
                workload, interference, domain=ContentionDomain.NETWORK
            )

    def test_predict_batch_network_raises_for_flat_target(self):
        model = self.make_model()
        with pytest.raises(ModelError, match="no network profile"):
            model.predict_batch(
                [("app", (4.0, 2.0)), ("plain", (4.0, 2.0))],
                domain=ContentionDomain.NETWORK,
            )

    def test_corunners_batch_matches_combined_scalar(self):
        model = self.make_model()
        items = [
            ("app", [0, 1], {0: ["src"], 1: ["plain"]}),
            ("plain", [0, 1], {0: ["src"], 1: []}),
            ("src", [2, 3], {2: ["app", "app"], 3: ["plain"]}),
            ("app", [0, 1, 2, 3], {}),
        ]
        batch = model.predict_corunners_batch(items)
        for value, (w, n, c) in zip(batch, items):
            assert value == model.predict_under_corunners(w, n, c)

    def test_placement_batches_match_combined_scalar(self):
        model = self.make_model()
        spec = ClusterSpec(num_nodes=8)
        instances = [
            InstanceSpec("app#0", "app", 4),
            InstanceSpec("src#1", "src", 4),
            InstanceSpec("plain#2", "plain", 4),
            InstanceSpec("app#3", "app", 4),
        ]
        placements = [
            Placement.random(spec, instances, seed=s) for s in range(4)
        ]
        for placement in placements:
            batch = model.predict_placement_batch(placement)
            for key in batch:
                instance = next(
                    i for i in instances if i.instance_key == key
                )
                assert batch[key] == model.predict_under_corunners(
                    instance.workload,
                    placement.spanned_nodes(key),
                    placement.co_runner_workloads(key),
                )
        # The wave surface extends one base placement with one job per
        # node set and returns a (num_node_sets, num_instances) row per
        # candidate, in instance order with the job last.
        base = Placement.random(
            spec, [InstanceSpec(i.instance_key, i.workload, 2)
                   for i in instances[:3]], seed=5,
        )
        job = InstanceSpec("app#3", "app", 2)
        load = {}
        for instance in base.instances:
            for node in base.nodes_of(instance.instance_key):
                load[node] = load.get(node, 0) + 1
        free = [node for node in range(8) if load.get(node, 0) < 2]
        node_sets = [(a, b) for a in free for b in free if a < b]
        many = model.predict_placements_batch(base, job, node_sets)
        assert many.shape == (len(node_sets), 4)
        for row, nodes in zip(many, node_sets):
            assignment = {
                i.instance_key: base.nodes_of(i.instance_key)
                for i in base.instances
            }
            assignment[job.instance_key] = nodes
            candidate = Placement(
                spec, (*base.instances, job), assignment
            )
            per_key = model.predict_placement_batch(candidate)
            for value, instance in zip(row, candidate.instances):
                assert value == per_key[instance.instance_key]


class TestSerialization:
    def test_network_fields_roundtrip(self):
        model = model_with(net_profile("app"), flat_profile("plain"))
        clone = InterferenceModel.from_dict(model.to_dict())
        assert clone.has_network
        p = clone.profile("app")
        assert p.network_score == 4.0
        assert np.array_equal(
            p.network_matrix.values, network_matrix().values
        )
        assert clone.profile("plain").network_matrix is None
        assert clone.predict(
            "app", (4.0, 2.0), domain=ContentionDomain.NETWORK
        ) == model.predict("app", (4.0, 2.0), domain=ContentionDomain.NETWORK)

    def test_flat_profiles_serialize_without_network_keys(self):
        # Scalar-era model files must round-trip byte-identically, so a
        # flat profile may not grow new keys.
        payload = flat_profile().to_dict()
        assert "network_matrix" not in payload
        assert "network_score" not in payload

    def test_legacy_payload_loads_flat(self):
        model = InterferenceModel.from_dict(
            {"plain": flat_profile().to_dict()}
        )
        assert not model.has_network


class TestOnlineModelPassthrough:
    def test_domain_keyword_delegates(self):
        base = model_with(net_profile("app"))
        online = OnlineModel(base)
        assert online.has_network
        assert online.predict(
            "app", (4.0, 2.0), domain=ContentionDomain.NETWORK
        ) == base.predict("app", (4.0, 2.0), domain=ContentionDomain.NETWORK)
        batch = online.predict_batch(
            [("app", (4.0, 2.0))], domain=ContentionDomain.NETWORK
        )
        assert batch[0] == base.predict(
            "app", (4.0, 2.0), domain=ContentionDomain.NETWORK
        )

    def test_network_pressure_vector_delegates(self):
        base = model_with(net_profile("app"), net_profile("src", net_score=5.0))
        online = OnlineModel(base)
        nodes = [0, 1]
        co_runners = {0: ["src"]}
        assert online.network_pressure_vector(
            nodes, co_runners
        ) == base.network_pressure_vector(nodes, co_runners)


class TestStableApiExports:
    def test_facade_exports(self):
        import repro
        from repro import api

        for name in (
            "ContentionDomain", "build_network_profiles", "NETWORK_WORKLOADS",
        ):
            assert name in api.__all__
            assert hasattr(repro, name)

    def test_contention_domain_parse(self):
        assert ContentionDomain.parse("network") is ContentionDomain.NETWORK
        assert (
            ContentionDomain.parse(ContentionDomain.COMPUTE)
            is ContentionDomain.COMPUTE
        )
