"""Per-resource ground-truth behaviour of the datacenter archetypes.

``D.PS`` (parameter server) must be *network-dominant*: a quiet
compute neighbour whose gradient pushes saturate its hosts' uplinks.
``D.BFS`` (graph traversal) is *mixed*: its frontier expansion is
cache-hungry while its frontier exchange rides the links.  These
asymmetries are what the per-resource prediction API exists to
capture, so they are pinned here against the simulated ground truth.
"""

from repro.apps import NETWORK_WORKLOADS, get_workload
from repro.cluster.contention import ContentionDomain
from repro.sim.runner import ClusterRunner

NETWORK = ContentionDomain.NETWORK


def runner():
    return ClusterRunner(base_seed=7)


class TestSpecGroundTruth:
    def test_both_archetypes_generate_link_traffic(self):
        for abbrev in NETWORK_WORKLOADS:
            spec = get_workload(abbrev).spec
            assert spec.generated_network_pressure > 0.0, abbrev
            assert spec.network_sensitivity is not None, abbrev

    def test_paramserver_is_compute_quiet(self):
        # The deceptive profile: low compute score, high network score.
        spec = get_workload("D.PS").spec
        assert spec.generated_pressure < 2.0
        assert spec.generated_network_pressure > 4.0
        assert spec.generated_network_pressure > 2 * spec.generated_pressure


class TestParameterServerSensitivity:
    """D.PS suffers far more from link noise than from cache noise."""

    def test_network_dominant_at_matched_levels(self):
        env = runner()
        compute = env.measure("D.PS", 6.0, 4, span=4)
        network = env.measure("D.PS", 6.0, 4, span=4, domain=NETWORK)
        assert network > 1.05
        assert (network - 1.0) > 1.5 * (compute - 1.0)

    def test_network_slowdown_monotone(self):
        env = runner()
        low = env.measure("D.PS", 2.0, 4, span=4, domain=NETWORK)
        high = env.measure("D.PS", 8.0, 4, span=4, domain=NETWORK)
        assert 1.0 <= low < high


class TestGraphTraversalSensitivity:
    """D.BFS is mixed: both resources bite, compute bites harder."""

    def test_sensitive_on_both_resources(self):
        env = runner()
        compute = env.measure("D.BFS", 6.0, 4, span=4)
        network = env.measure("D.BFS", 6.0, 4, span=4, domain=NETWORK)
        assert compute > 1.05
        assert network > 1.05
        assert compute > network
