"""Deterministic cell partitioning (``repro.scale.sharding``)."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterSpec
from repro.errors import ConfigurationError
from repro.scale import shard_cluster


def test_sharding_is_deterministic():
    spec = ClusterSpec(num_nodes=40)
    first = shard_cluster(spec, 7, seed=3)
    second = shard_cluster(spec, 7, seed=3)
    assert [s.node_ids for s in first] == [s.node_ids for s in second]


def test_different_seeds_shuffle_differently():
    spec = ClusterSpec(num_nodes=40)
    a = shard_cluster(spec, 7, seed=3)
    b = shard_cluster(spec, 7, seed=4)
    assert [s.node_ids for s in a] != [s.node_ids for s in b]


def test_shards_partition_the_cluster():
    spec = ClusterSpec(num_nodes=41)
    shards = shard_cluster(spec, 6, seed=9)
    seen = [node for shard in shards for node in shard.node_ids]
    assert sorted(seen) == list(range(41))
    sizes = [shard.num_nodes for shard in shards]
    assert max(sizes) - min(sizes) <= 1
    for shard in shards:
        assert shard.spec.num_nodes == shard.num_nodes
        assert shard.node_ids == tuple(sorted(shard.node_ids))


def test_single_cell_is_the_identity_view():
    spec = ClusterSpec(num_nodes=10)
    (shard,) = shard_cluster(spec, 1, seed=123)
    assert shard.cell_id == 0
    assert shard.node_ids == tuple(range(10))
    assert shard.spec.num_nodes == 10


def test_invalid_cell_counts_rejected():
    spec = ClusterSpec(num_nodes=8)
    with pytest.raises(ConfigurationError):
        shard_cluster(spec, 0)
    with pytest.raises(ConfigurationError):
        shard_cluster(spec, 9)
