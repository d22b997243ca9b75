"""Tests for the NETWORK contention domain in the simulator.

Covers the link-pressure bookkeeping in :class:`PressureField`, the
executor's bottleneck-link scaling of collective stages, the passivity
of network-noise bubbles, and the runner's ``network_ambient``
injection — including the flat-network invariant that none of it
exists unless a network source does.
"""

import pytest

from repro.apps import make_bubble
from repro.cluster.cluster import ClusterSpec
from repro.cluster.contention import (
    ContentionDomain,
    LinearSensitivity,
    combine_pressures,
)
from repro.cluster.topology import SwitchTopology
from repro.errors import ConfigurationError, SimulationError
from repro.sim.pressure import PressureField
from repro.sim.runner import ClusterRunner
from repro.apps.base import Workload
from repro.apps.mpi import BSPWorkload, CollectiveType
from tests._synthetic import QUIET_NOISE, bsp_workload, synthetic_spec


def net_workload(name: str = "netw", *, score: float = 0.0,
                 net_score: float = 3.0, **spec_kwargs):
    """A BSP workload that pushes traffic through its hosts' uplinks."""
    return bsp_workload(
        name, score=score, net_score=net_score, **spec_kwargs
    )


class TestFieldHasNetwork:
    def test_empty_field_is_flat(self):
        assert not PressureField().has_network

    def test_compute_only_sources_stay_flat(self):
        field = PressureField()
        field.register("a", bsp_workload("a", score=3.0), {0: 0})
        assert not field.has_network

    def test_network_source_flips_it(self):
        field = PressureField()
        field.register("n", net_workload(), {0: 0})
        assert field.has_network

    def test_ambient_link_flips_it(self):
        assert PressureField(ambient_link={0: 2.0}).has_network

    def test_zero_ambient_link_is_filtered(self):
        # --network-noise 0.0 must leave the field indistinguishable
        # from a scalar-era one.
        assert not PressureField(ambient_link={0: 0.0, 1: 0.0}).has_network


class TestLinkPressureSeen:
    def make_field(self):
        field = PressureField()
        field.register("a", net_workload("a", net_score=3.0), {0: 0, 1: 1})
        field.register("b", net_workload("b", net_score=2.0), {0: 1, 1: 2})
        return field

    def test_excludes_own_contribution(self):
        assert self.make_field().link_pressure_seen("a", 0) == 0.0

    def test_sees_co_runner_uplink_traffic(self):
        field = self.make_field()
        assert field.link_pressure_seen("a", 1) == 2.0
        assert field.link_pressure_seen("b", 1) == 3.0

    def test_combines_with_network_surcharge(self):
        field = PressureField()
        field.register("a", net_workload("a", net_score=3.0), {0: 0})
        field.register("b", net_workload("b", net_score=3.0), {0: 0})
        field.register("v", bsp_workload("v", score=0.0), {0: 0})
        expected = combine_pressures(
            [3.0, 3.0], domain=ContentionDomain.NETWORK
        )
        assert field.link_pressure_seen("v", 0) == expected

    def test_ambient_link_included(self):
        field = PressureField(ambient_link={0: 2.5})
        field.register("v", bsp_workload("v"), {0: 0})
        assert field.link_pressure_seen("v", 0) == 2.5

    def test_deactivation_removes_link_pressure(self):
        field = self.make_field()
        field.deactivate("b")
        assert field.link_pressure_seen("a", 1) == 0.0

    def test_flat_field_reports_zero(self):
        field = PressureField()
        field.register("a", bsp_workload("a", score=3.0), {0: 0})
        assert field.link_pressure_seen("a", 0) == 0.0


class TestNetworkBubblePassivity:
    """Traffic generators exert link pressure but zero compute pressure."""

    def test_network_bubble_is_compute_silent(self):
        field = PressureField()
        bubble = make_bubble(5.0, domain=ContentionDomain.NETWORK)
        field.register("bub", bubble, {0: 0})
        field.register("v", bsp_workload("v", score=0.0), {0: 0})
        assert field.pressure_seen("v", 0) == 0.0
        assert field.link_pressure_seen("v", 0) == 5.0

    def test_compute_bubble_is_link_silent(self):
        field = PressureField()
        field.register("bub", make_bubble(5.0), {0: 0})
        field.register("v", bsp_workload("v", score=0.0), {0: 0})
        assert field.pressure_seen("v", 0) == 5.0
        assert field.link_pressure_seen("v", 0) == 0.0
        assert not field.has_network


class _SyncFactory:
    """Factory whose workloads pay a real collective cost per iteration.

    Module-level class (not a closure) so runners built on it can cross
    process boundaries, mirroring ``tests._synthetic.SyntheticFactory``.
    """

    def __init__(self, **overrides) -> None:
        self.overrides = overrides

    def __call__(self, abbrev: str) -> Workload:
        return BSPWorkload(
            synthetic_spec(abbrev, **self.overrides.get(abbrev, {})),
            iterations=4,
            collective=CollectiveType.ALLREDUCE,
            topology=SwitchTopology(base_latency=0.5, per_node_cost=0.05),
        )


def sync_runner(*, network_ambient: float = 0.0, **overrides) -> ClusterRunner:
    return ClusterRunner(
        ClusterSpec(num_nodes=4, cores_per_node=16),
        noise=QUIET_NOISE,
        base_seed=1,
        workload_factory=_SyncFactory(**overrides),
        network_ambient=network_ambient,
    )


VICTIM = {"vic": {"net_sensitivity": LinearSensitivity(max_slowdown=3.0)}}
NETWORK = ContentionDomain.NETWORK


class TestExecutorLinkScaling:
    def test_link_noise_slows_collectives(self):
        runner = sync_runner(**VICTIM)
        slowed = runner.measure("vic", 6.0, 2, span=2, domain=NETWORK)
        assert slowed > 1.0
        assert runner.measure("vic", 6.0, 2, span=2, domain=NETWORK) == slowed

    def test_monotone_in_level(self):
        runner = sync_runner(**VICTIM)
        low = runner.measure("vic", 2.0, 2, span=2, domain=NETWORK)
        high = runner.measure("vic", 7.0, 2, span=2, domain=NETWORK)
        assert 1.0 < low < high

    def test_bottleneck_link_gates_the_exchange(self):
        # The executor reads the *max* link pressure over the spanned
        # nodes: raising an already-dominated link changes nothing.
        runner = sync_runner(**VICTIM)
        mixed = runner.measure_heterogeneous_time(
            "vic", {0: 3.0, 1: 5.0}, domain=NETWORK
        )
        flat = runner.measure_heterogeneous_time(
            "vic", {0: 5.0, 1: 5.0}, domain=NETWORK
        )
        assert mixed == flat

    def test_insensitive_workload_unaffected(self):
        # No network_sensitivity (the scalar-era default): network
        # bubbles change nothing, and the bubbles themselves exert no
        # compute pressure.
        runner = sync_runner()
        assert runner.measure("vic", 8.0, 2, span=2, domain=NETWORK) == 1.0


class TestNetworkAmbient:
    def test_zero_ambient_is_bit_identical(self):
        flat = sync_runner(**VICTIM)
        explicit = sync_runner(network_ambient=0.0, **VICTIM)
        assert (
            explicit.measure_time("vic", 4.0, 2, span=2)
            == flat.measure_time("vic", 4.0, 2, span=2)
        )
        assert explicit.solo_time("vic", num_units=2) == flat.solo_time(
            "vic", num_units=2
        )

    def test_ambient_slows_sensitive_workloads(self):
        flat = sync_runner(**VICTIM)
        noisy = sync_runner(network_ambient=6.0, **VICTIM)
        assert noisy.solo_time("vic", num_units=2) > flat.solo_time(
            "vic", num_units=2
        )

    def test_ambient_spares_insensitive_workloads(self):
        flat = sync_runner()
        noisy = sync_runner(network_ambient=6.0)
        assert noisy.solo_time("vic", num_units=2) == flat.solo_time(
            "vic", num_units=2
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            sync_runner(network_ambient=-1.0)
        with pytest.raises(ConfigurationError):
            sync_runner(network_ambient=9.0)
