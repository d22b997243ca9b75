"""Tests for the re-indexed node subsets the elastic pool searches on."""

import pytest

from repro.cluster.cluster import ClusterSpec, ClusterView
from repro.errors import ConfigurationError

SPEC = ClusterSpec(
    num_nodes=6, cores_per_node=24, memory_gb_per_node=128,
    max_workloads_per_node=3,
)


class TestOf:
    @pytest.mark.parametrize(
        "nodes", [(), (1, 1), (-1, 2), (0, 6)],
        ids=["empty", "duplicate", "negative", "past-the-end"],
    )
    def test_rejects_bad_node_sets(self, nodes):
        with pytest.raises(ConfigurationError):
            ClusterView.of(SPEC, nodes)

    def test_sorts_its_nodes(self):
        view = ClusterView.of(SPEC, [5, 0, 3])
        assert view.physical_nodes == (0, 3, 5)
        assert view.base_spec is SPEC


class TestSpec:
    def test_shrinks_the_node_count_only(self):
        spec = ClusterView.of(SPEC, [4, 1]).spec
        assert spec == ClusterSpec(
            num_nodes=2, cores_per_node=24, memory_gb_per_node=128,
            max_workloads_per_node=3,
        )


class TestLiftAssignment:
    def test_maps_virtual_ids_to_physical_ids(self):
        view = ClusterView.of(SPEC, [5, 2, 3])
        assert view.lift_assignment({"a": (0, 2), "b": [1]}) == {
            "a": (2, 5),
            "b": (3,),
        }
