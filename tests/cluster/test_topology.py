"""Tests for the interconnect model."""

import pytest

from repro.cluster.topology import SwitchTopology


class TestSwitchTopology:
    def test_collective_scales_with_nodes(self):
        topo = SwitchTopology(base_latency=0.001, per_node_cost=0.0001)
        assert topo.collective_cost(8) == pytest.approx(0.0018)
        assert topo.collective_cost(4) < topo.collective_cost(8)

    def test_single_node_collective_free(self):
        topo = SwitchTopology()
        assert topo.collective_cost(1) == 0.0

    def test_zero_nodes_rejected(self):
        # A collective needs at least one participant.
        with pytest.raises(ValueError):
            SwitchTopology().collective_cost(0)

    def test_negative_nodes_rejected(self):
        with pytest.raises(ValueError):
            SwitchTopology().collective_cost(-1)

    def test_shuffle_exceeds_collective(self):
        topo = SwitchTopology()
        assert topo.shuffle_cost(8) > topo.collective_cost(8)
        assert topo.shuffle_cost(8) == topo.collective_cost(8) * 2.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            SwitchTopology(base_latency=-0.1)
