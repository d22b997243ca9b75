"""Cluster shape: the hosts every placement is checked against.

:class:`ClusterSpec` describes the paper's testbed (Section 3.1):
eight 16-core hosts, each hosting at most two distinct workloads.
:class:`~repro.placement.assignment.Placement` enforces the host
rules: two 4-VM dual-vCPU units per host (``unit_slots_per_node``) and
the spec's pairwise workload limit.  :class:`ClusterView` re-indexes a
subset of a spec's nodes for the elastic pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError
from repro.units import DEFAULT_CORES_PER_HOST, DEFAULT_NUM_HOSTS


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a homogeneous cluster.

    Parameters
    ----------
    num_nodes:
        Number of physical hosts.
    cores_per_node:
        Physical cores per host.
    memory_gb_per_node:
        DRAM per host.
    max_workloads_per_node:
        Distinct-workload co-location limit (2 in the paper).
    """

    num_nodes: int = DEFAULT_NUM_HOSTS
    cores_per_node: int = DEFAULT_CORES_PER_HOST
    memory_gb_per_node: int = 64
    max_workloads_per_node: int = 2

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigurationError("num_nodes must be positive")
        if self.cores_per_node <= 0:
            raise ConfigurationError("cores_per_node must be positive")
        if self.max_workloads_per_node <= 0:
            raise ConfigurationError("max_workloads_per_node must be positive")


@dataclass(frozen=True)
class ClusterView:
    """A contiguous re-indexed view over a subset of a cluster's nodes.

    The elastic provider layer shrinks and drains nodes mid-day, but
    the placement searches (:mod:`repro.placement`) are written against
    a dense ``0..num_nodes-1`` id space.  A view bridges the two: it
    maps the *allowed* physical node ids (live, non-draining) onto a
    compact virtual id space, hands the searches a correspondingly
    smaller :class:`ClusterSpec`, and lifts the resulting assignment
    back to physical ids.  When every node is allowed the view is the
    identity and callers skip it entirely, so fixed-capacity runs
    never pass through this translation.
    """

    base_spec: ClusterSpec
    physical_nodes: tuple

    @classmethod
    def of(cls, spec: ClusterSpec, nodes) -> "ClusterView":
        """View of ``spec`` restricted to the sorted physical ``nodes``."""
        allowed = tuple(sorted(int(n) for n in nodes))
        if not allowed:
            raise ConfigurationError("a cluster view needs at least one node")
        if len(set(allowed)) != len(allowed):
            raise ConfigurationError("view nodes must be unique")
        if allowed[0] < 0 or allowed[-1] >= spec.num_nodes:
            raise ConfigurationError(
                f"view nodes {allowed} out of range for "
                f"{spec.num_nodes}-node cluster"
            )
        return cls(base_spec=spec, physical_nodes=allowed)

    @property
    def spec(self) -> ClusterSpec:
        """The compact spec searches run against."""
        return ClusterSpec(
            num_nodes=len(self.physical_nodes),
            cores_per_node=self.base_spec.cores_per_node,
            memory_gb_per_node=self.base_spec.memory_gb_per_node,
            max_workloads_per_node=self.base_spec.max_workloads_per_node,
        )

    def lift_assignment(self, assignment: Dict[str, tuple]) -> Dict[str, tuple]:
        """Translate a virtual-id assignment to physical node ids."""
        return {
            key: tuple(self.physical_nodes[int(v)] for v in nodes)
            for key, nodes in assignment.items()
        }
