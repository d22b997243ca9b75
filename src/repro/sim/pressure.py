"""Time-varying interference pressure bookkeeping.

The :class:`PressureField` answers the simulator's central question:
*what pressure does instance X experience on node N right now?*  The
answer combines the per-unit generated pressures of every *other*
active instance resident on the node (plus any ambient background
pressure), using the logarithmic combination rule of
:func:`repro.cluster.contention.combine_pressures`.

The field tracks two contention domains.  COMPUTE contributions come
from :meth:`~repro.apps.base.Workload.generated_pressure_for` and model
LLC / memory-bandwidth theft on the node itself; NETWORK contributions
come from ``generated_network_pressure_for`` and model traffic on the
node's uplink to the shared switch.  Link pressure is only bookkept for
instances that actually generate it (every scalar-era workload
contributes zero), so flat-network simulations never touch the network
structures.

When an instance finishes it is deactivated and its pressure vanishes
— co-runners speed up from their next task onward, which reproduces
the dynamics of real consolidated runs where applications end at
different times.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.apps.base import Workload
from repro.cluster.contention import ContentionDomain, combine_pressures
from repro.errors import SimulationError


class PressureField:
    """Tracks which instance exerts what pressure on which node.

    Parameters
    ----------
    ambient:
        Background COMPUTE pressure per node (noisy-neighbour model).
    ambient_link:
        Background NETWORK pressure per node uplink (network-noise
        mode); ``None`` or all-zero keeps the link flat.
    """

    def __init__(
        self,
        ambient: Mapping[int, float] | None = None,
        *,
        ambient_link: Mapping[int, float] | None = None,
    ) -> None:
        # instance_key -> node_id -> list of per-unit pressures
        self._contributions: Dict[str, Dict[int, List[float]]] = {}
        # instance_key -> node_id -> list of per-unit link pressures;
        # only instances with nonzero network pressure appear here.
        self._link_contributions: Dict[str, Dict[int, List[float]]] = {}
        self._active: Dict[str, bool] = {}
        self._ambient: Dict[int, float] = dict(ambient or {})
        self._ambient_link: Dict[int, float] = {
            node: level
            for node, level in dict(ambient_link or {}).items()
            if level > 0.0
        }
        self._cache: Dict[Tuple[str, int], float] = {}
        self._link_cache: Dict[Tuple[str, int], float] = {}

    def register(
        self, instance_key: str, workload: Workload, units_to_nodes: Mapping[int, int]
    ) -> None:
        """Register a deployed instance's pressure contributions.

        Parameters
        ----------
        instance_key:
            Unique identifier of the instance.
        workload:
            The workload, providing per-unit generated pressure (the
            master unit may exert a discounted pressure).
        units_to_nodes:
            Mapping of unit index to hosting node id.
        """
        if instance_key in self._contributions:
            raise SimulationError(f"instance {instance_key!r} registered twice")
        per_node: Dict[int, List[float]] = {}
        for unit_index, node_id in units_to_nodes.items():
            per_node.setdefault(node_id, []).append(
                workload.generated_pressure_for(unit_index)
            )
        self._contributions[instance_key] = per_node
        if workload.spec.generated_network_pressure > 0.0:
            link_per_node: Dict[int, List[float]] = {}
            for unit_index, node_id in units_to_nodes.items():
                link_per_node.setdefault(node_id, []).append(
                    workload.generated_network_pressure_for(unit_index)
                )
            self._link_contributions[instance_key] = link_per_node
            self._link_cache.clear()
        self._active[instance_key] = True
        self._cache.clear()

    def deactivate(self, instance_key: str) -> None:
        """Remove a finished instance's pressure from the field."""
        if instance_key not in self._active:
            raise SimulationError(f"unknown instance {instance_key!r}")
        self._active[instance_key] = False
        self._cache.clear()
        if self._link_contributions:
            self._link_cache.clear()

    def is_active(self, instance_key: str) -> bool:
        """Whether the instance still exerts pressure."""
        return self._active.get(instance_key, False)

    @property
    def has_network(self) -> bool:
        """Whether any network-pressure source exists in the field.

        False for every scalar-era simulation; the executor uses this
        to skip the NETWORK domain entirely, keeping flat runs
        bit-identical.
        """
        return bool(self._link_contributions or self._ambient_link)

    def pressure_seen(self, instance_key: str, node_id: int) -> float:
        """Effective pressure ``instance_key`` experiences on ``node_id``.

        Combines all other active instances' contributions on the node
        and the ambient background pressure.  Results are cached until
        the next activation change.
        """
        key = (instance_key, node_id)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        sources: List[float] = []
        ambient = self._ambient.get(node_id, 0.0)
        if ambient > 0.0:
            sources.append(ambient)
        for other_key, per_node in self._contributions.items():
            if other_key == instance_key or not self._active[other_key]:
                continue
            sources.extend(per_node.get(node_id, ()))
        pressure = combine_pressures(sources)
        self._cache[key] = pressure
        return pressure

    def link_pressure_seen(self, instance_key: str, node_id: int) -> float:
        """Link pressure ``instance_key`` experiences on ``node_id``'s uplink.

        The NETWORK-domain analogue of :meth:`pressure_seen`: combines
        every other active instance's uplink traffic on the node with
        the ambient link noise, under the NETWORK collision surcharge.
        """
        key = (instance_key, node_id)
        cached = self._link_cache.get(key)
        if cached is not None:
            return cached
        sources: List[float] = []
        ambient = self._ambient_link.get(node_id, 0.0)
        if ambient > 0.0:
            sources.append(ambient)
        for other_key, per_node in self._link_contributions.items():
            if other_key == instance_key or not self._active[other_key]:
                continue
            sources.extend(per_node.get(node_id, ()))
        pressure = combine_pressures(sources, domain=ContentionDomain.NETWORK)
        self._link_cache[key] = pressure
        return pressure

    def generated_on(self, node_id: int, *, exclude: str | None = None) -> float:
        """Total pressure present on a node (diagnostics/reporting)."""
        sources: List[float] = []
        ambient = self._ambient.get(node_id, 0.0)
        if ambient > 0.0:
            sources.append(ambient)
        for key, per_node in self._contributions.items():
            if key == exclude or not self._active[key]:
                continue
            sources.extend(per_node.get(node_id, ()))
        return combine_pressures(sources)
