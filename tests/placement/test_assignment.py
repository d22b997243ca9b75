"""Tests for the placement representation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import ClusterSpec
from repro.errors import PlacementError
from repro.placement.assignment import InstanceSpec, Placement, units_moved

SPEC = ClusterSpec(num_nodes=8)


def four_apps():
    return [InstanceSpec(f"app{i}#%d" % i, f"app{i}") for i in range(4)]


def paired_assignment():
    """The canonical segregated matching: app pairs on node halves."""
    return {
        "app0#0": [0, 1, 2, 3],
        "app1#1": [4, 5, 6, 7],
        "app2#2": [0, 1, 2, 3],
        "app3#3": [4, 5, 6, 7],
    }


class TestValidation:
    def test_valid(self):
        placement = Placement(SPEC, four_apps(), paired_assignment())
        assert placement.nodes_of("app0#0") == (0, 1, 2, 3)

    def test_missing_instance(self):
        assignment = paired_assignment()
        del assignment["app3#3"]
        with pytest.raises(PlacementError, match="do not match"):
            Placement(SPEC, four_apps(), assignment)

    def test_wrong_unit_count(self):
        assignment = paired_assignment()
        assignment["app0#0"] = [0, 1]
        with pytest.raises(PlacementError, match="unit nodes"):
            Placement(SPEC, four_apps(), assignment)

    def test_duplicate_node_within_instance(self):
        assignment = paired_assignment()
        assignment["app0#0"] = [0, 0, 1, 2]
        with pytest.raises(PlacementError, match="distinct nodes"):
            Placement(SPEC, four_apps(), assignment)

    def test_node_capacity(self):
        assignment = paired_assignment()
        assignment["app1#1"] = [0, 1, 2, 3]
        assignment["app3#3"] = [0, 1, 2, 3]  # four units on node 0
        with pytest.raises(PlacementError, match="capacity"):
            Placement(SPEC, four_apps(), assignment)

    def test_node_out_of_range(self):
        assignment = paired_assignment()
        assignment["app0#0"] = [0, 1, 2, 9]
        with pytest.raises(PlacementError, match="out of range"):
            Placement(SPEC, four_apps(), assignment)

    def test_pairwise_limit_with_three_slots(self):
        # With 3 unit slots per node, three distinct workloads could
        # land together — the spec's limit of 2 must still hold.
        instances = [InstanceSpec(f"a{i}", f"a{i}", num_units=1) for i in range(3)]
        with pytest.raises(PlacementError, match="pairwise"):
            Placement(
                SPEC,
                instances,
                {"a0": [0], "a1": [0], "a2": [0]},
                unit_slots_per_node=3,
            )

    def test_duplicate_instance_keys(self):
        instances = [InstanceSpec("x", "a"), InstanceSpec("x", "b")]
        with pytest.raises(PlacementError, match="unique"):
            Placement(SPEC, instances, {"x": [0, 1, 2, 3]})


class TestRandom:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_always_valid(self, seed):
        placement = Placement.random(SPEC, four_apps(), seed=seed)
        for spec in placement.instances:
            nodes = placement.nodes_of(spec.instance_key)
            assert len(set(nodes)) == 4

    def test_random_deterministic(self):
        a = Placement.random(SPEC, four_apps(), seed=5)
        b = Placement.random(SPEC, four_apps(), seed=5)
        assert a == b

    def test_too_many_units(self):
        instances = [InstanceSpec(f"a{i}", f"a{i}", num_units=8) for i in range(3)]
        with pytest.raises(PlacementError, match="exceed"):
            Placement.random(SPEC, instances)


class TestQueries:
    def test_co_runner_workloads(self):
        placement = Placement(SPEC, four_apps(), paired_assignment())
        co = placement.co_runner_workloads("app0#0")
        assert co == {0: ["app2"], 1: ["app2"], 2: ["app2"], 3: ["app2"]}

    def test_spanned_nodes(self):
        placement = Placement(SPEC, four_apps(), paired_assignment())
        assert placement.spanned_nodes("app1#1") == [4, 5, 6, 7]

    def test_units_to_nodes(self):
        placement = Placement(SPEC, four_apps(), paired_assignment())
        assert placement.units_to_nodes("app0#0") == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_deployments(self):
        placement = Placement(SPEC, four_apps(), paired_assignment())
        deployments = placement.deployments()
        assert len(deployments) == 4
        key, workload, units = deployments[0]
        assert key == "app0#0" and workload == "app0"

    def test_unknown_instance(self):
        placement = Placement(SPEC, four_apps(), paired_assignment())
        with pytest.raises(PlacementError):
            placement.nodes_of("ghost")


class TestSwap:
    def test_swap_exchanges_nodes(self):
        placement = Placement(SPEC, four_apps(), paired_assignment())
        swapped = placement.swap_units("app0#0", 0, "app1#1", 0)
        assert swapped.nodes_of("app0#0")[0] == 4
        assert swapped.nodes_of("app1#1")[0] == 0

    def test_swap_is_pure(self):
        placement = Placement(SPEC, four_apps(), paired_assignment())
        placement.swap_units("app0#0", 0, "app1#1", 0)
        assert placement.nodes_of("app0#0")[0] == 0

    def test_swap_same_instance_rejected(self):
        placement = Placement(SPEC, four_apps(), paired_assignment())
        with pytest.raises(PlacementError, match="different"):
            placement.swap_units("app0#0", 0, "app0#0", 1)

    def test_swap_violating_distinctness_rejected(self):
        # Swapping app0's unit at node 0 with app2's unit at node 1
        # would give app0 two units on node 1.
        placement = Placement(SPEC, four_apps(), paired_assignment())
        with pytest.raises(PlacementError, match="distinct"):
            placement.swap_units("app0#0", 0, "app2#2", 1)

    def test_swap_bad_index(self):
        placement = Placement(SPEC, four_apps(), paired_assignment())
        with pytest.raises(PlacementError, match="out of range"):
            placement.swap_units("app0#0", 7, "app1#1", 0)


class TestInstanceSpec:
    def test_invalid_units(self):
        with pytest.raises(PlacementError):
            InstanceSpec("a", "a", num_units=0)

    def test_invalid_weight(self):
        with pytest.raises(PlacementError):
            InstanceSpec("a", "a", weight=0.0)


class TestEquality:
    def test_equal_assignments(self):
        a = Placement(SPEC, four_apps(), paired_assignment())
        b = Placement(SPEC, four_apps(), paired_assignment())
        assert a == b
        assert hash(a) == hash(b)

    def test_different_assignments(self):
        a = Placement(SPEC, four_apps(), paired_assignment())
        b = a.swap_units("app0#0", 0, "app1#1", 0)
        assert a != b


class TestUnitsMoved:
    def test_identity_is_zero(self):
        spec = ClusterSpec(num_nodes=4)
        instances = [InstanceSpec("a", "a", num_units=2),
                     InstanceSpec("b", "b", num_units=2)]
        placement = Placement(spec, instances, {"a": [0, 1], "b": [2, 3]})
        assert units_moved(placement, placement) == 0

    def test_counts_changed_units(self):
        spec = ClusterSpec(num_nodes=4)
        instances = [InstanceSpec("a", "a", num_units=2),
                     InstanceSpec("b", "b", num_units=2)]
        before = Placement(spec, instances, {"a": [0, 1], "b": [2, 3]})
        after = Placement(spec, instances, {"a": [2, 1], "b": [0, 3]})
        assert units_moved(before, after) == 2
