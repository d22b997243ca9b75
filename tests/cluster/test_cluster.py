"""Tests for the cluster inventory."""

import pytest

from repro.cluster.cluster import ClusterSpec
from repro.errors import ConfigurationError


class TestClusterSpec:
    def test_defaults(self):
        spec = ClusterSpec()
        assert spec.num_nodes == 8
        assert spec.cores_per_node == 16
        assert spec.max_workloads_per_node == 2

    def test_invalid_nodes(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(num_nodes=0)

    def test_invalid_cores(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(cores_per_node=-1)
