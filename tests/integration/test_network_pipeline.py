"""End-to-end tests for the network profiling campaign.

Two contracts: ``build_network_profiles`` adds the NETWORK domain to
an existing model without disturbing a single compute-domain bit, and
flat-network models never leave the scalar-era code paths at all.
"""

import numpy as np
import pytest

from repro.apps.base import Workload
from repro.apps.mpi import BSPWorkload, CollectiveType
from repro.cluster.cluster import ClusterSpec
from repro.cluster.contention import ContentionDomain, LinearSensitivity
from repro.cluster.topology import SwitchTopology
from repro.core.builder import build_model, build_network_profiles
from repro.core.model import NETWORK_POLICY, InterferenceModel
from repro.core.profiling.plan import MeasurementOracle
from repro.errors import ModelError
from repro.sim.runner import ClusterRunner
from tests._synthetic import QUIET_NOISE, synthetic_spec


class _SyncFactory:
    """Workloads that pay a collective cost, so links matter."""

    def __init__(self, **overrides) -> None:
        self.overrides = overrides

    def __call__(self, abbrev: str) -> Workload:
        return BSPWorkload(
            synthetic_spec(abbrev, **self.overrides.get(abbrev, {})),
            iterations=4,
            collective=CollectiveType.ALLREDUCE,
            topology=SwitchTopology(base_latency=0.5, per_node_cost=0.05),
        )


def sync_runner() -> ClusterRunner:
    overrides = {
        "vic": {
            "net_sensitivity": LinearSensitivity(max_slowdown=3.0),
            "net_score": 4.0,
        },
    }
    return ClusterRunner(
        ClusterSpec(num_nodes=4, cores_per_node=16),
        noise=QUIET_NOISE,
        base_seed=1,
        workload_factory=_SyncFactory(**overrides),
    )


@pytest.fixture(scope="module")
def built():
    runner = sync_runner()
    report = build_model(
        runner, ["vic", "plain"], policy_samples=6, seed=3
    )
    model = report.model
    snapshot = InterferenceModel.from_dict(model.to_dict())
    outcomes = build_network_profiles(runner, model, ["vic"])
    return runner, model, snapshot, outcomes


SETTINGS = [
    ("vic", (4.0, 2.0)),
    ("vic", [6.0, 2.0, 0.0, 0.0]),
    ("plain", (8.0, 4.0)),
    ("plain", [3.0, 3.0, 3.0, 3.0]),
]


class TestNetworkCampaign:
    def test_network_fields_populated(self, built):
        _, model, _, outcomes = built
        profile = model.profile("vic")
        assert profile.network_matrix is not None
        assert profile.network_score > 2.0
        assert outcomes["vic"].settings_measured > 0
        assert model.has_network

    def test_network_policy_is_all_max(self, built):
        # No policy selection runs for the network domain: the
        # bottleneck link gates collectives, so ALL-max is forced.
        _, model, _, _ = built
        vector = [6.0, 0.0, 0.0, 0.0]
        assert model.predict(
            "vic", vector, domain=ContentionDomain.NETWORK
        ) == model.predict(
            "vic", [6.0, 6.0, 6.0, 6.0], domain=ContentionDomain.NETWORK
        )
        assert NETWORK_POLICY == "ALL MAX"

    def test_requires_compute_profile_first(self, built):
        runner, model, _, _ = built
        with pytest.raises(ModelError, match="no interference profile"):
            build_network_profiles(runner, model, ["ghost"])

    def test_network_prediction_tracks_ground_truth(self, built):
        runner, model, _, _ = built
        predicted = model.predict(
            "vic", (6.0, 4.0), domain=ContentionDomain.NETWORK
        )
        measured = runner.measure("vic", 6.0, 4, domain=ContentionDomain.NETWORK)
        assert predicted == pytest.approx(measured, rel=0.05)


class TestComputeBitIdentity:
    """Adding the NETWORK domain may not move one compute-domain bit."""

    def test_scalar_predictions_unchanged(self, built):
        _, model, snapshot, _ = built
        for workload, interference in SETTINGS:
            assert model.predict(workload, interference) == snapshot.predict(
                workload, interference
            )

    def test_batch_predictions_unchanged(self, built):
        _, model, snapshot, _ = built
        rows = [(w, i) for w, i in SETTINGS if isinstance(i, list)]
        workloads = [workload for workload, _ in rows]
        vectors = [vector for _, vector in rows]
        assert np.array_equal(
            model.prediction_kernel().predict_vectors(workloads, vectors),
            snapshot.prediction_kernel().predict_vectors(workloads, vectors),
        )

    def test_compute_matrix_serialization_unchanged(self, built):
        _, model, snapshot, _ = built
        for workload in ("vic", "plain"):
            before = snapshot.profile(workload).to_dict()
            after = model.profile(workload).to_dict()
            for key in before:
                assert before[key] == after[key], (workload, key)

    def test_quiet_corunners_leave_combined_at_compute(self, built):
        # A co-runner with no network score exerts zero link pressure:
        # the network factor is exactly 1.0 and the combined value is
        # bit-equal to the compute-only one.
        _, model, snapshot, _ = built
        nodes = [0, 1]
        co_runners = {0: ["plain"], 1: ["plain"]}
        assert model.predict_under_corunners(
            "vic", nodes, co_runners
        ) == snapshot.predict_under_corunners("vic", nodes, co_runners)

    def test_loud_corunners_raise_combined_above_compute(self, built):
        _, model, snapshot, _ = built
        nodes = [0, 1]
        co_runners = {0: ["vic"], 1: ["vic"]}
        combined = model.predict_under_corunners("plain", nodes, co_runners)
        compute_only = snapshot.predict_under_corunners(
            "plain", nodes, co_runners
        )
        # 'plain' has no network profile: graceful compute-only even
        # though the model itself carries the domain.
        assert combined == compute_only
        assert model.predict_under_corunners(
            "vic", nodes, {0: ["vic"]}
        ) > snapshot.predict_under_corunners("vic", nodes, {0: ["vic"]})


class TestOracleRouting:
    def test_network_oracle_measures_link_noise(self, built):
        runner, _, _, _ = built
        oracle = MeasurementOracle(
            runner, "vic", domain=ContentionDomain.NETWORK
        )
        assert oracle.normalized(6.0, 2) == runner.measure(
            "vic", 6.0, 2, domain=ContentionDomain.NETWORK
        )

    def test_compute_oracle_unchanged(self, built):
        runner, _, _, _ = built
        oracle = MeasurementOracle(runner, "vic")
        assert oracle.normalized(6.0, 2) == runner.measure("vic", 6.0, 2)

    def test_domains_use_disjoint_measurements(self, built):
        runner, _, _, _ = built
        compute = MeasurementOracle(runner, "vic").normalized(6.0, 2)
        network = MeasurementOracle(
            runner, "vic", domain=ContentionDomain.NETWORK
        ).normalized(6.0, 2)
        assert compute != network
