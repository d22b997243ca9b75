"""Consolidated-cluster substrate: cluster shape and contention.

This subpackage models the physical layer of the paper's testbed
(Section 3.1): the shape of an 8-node cluster of 16-core hosts
(:class:`ClusterSpec`, whose host rules
:class:`~repro.placement.assignment.Placement` enforces), re-indexed
views over a subset of its nodes, shared LLC / memory-bandwidth
contention abstracted to the bubble-pressure scale, and the switch
topology of the network domain.
"""

from repro.cluster.cluster import ClusterSpec, ClusterView
from repro.cluster.contention import (
    ContentionDomain,
    DOMAIN_COLLISION_SURCHARGE,
    ExponentialSensitivity,
    FlatSensitivity,
    LinearSensitivity,
    SensitivityFunction,
    combine_pressures,
)
from repro.cluster.topology import SwitchTopology

__all__ = [
    "ClusterSpec",
    "ClusterView",
    "ContentionDomain",
    "DOMAIN_COLLISION_SURCHARGE",
    "ExponentialSensitivity",
    "FlatSensitivity",
    "LinearSensitivity",
    "SensitivityFunction",
    "SwitchTopology",
    "combine_pressures",
]
