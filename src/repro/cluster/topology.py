"""Interconnect model.

The testbed connects hosts via a single 10 GbE switch (Section 3.1), so
the topology is a uniform star: every inter-node message pays the same
base latency plus a per-participant serialization term.  Collective
costs here set the *baseline* communication component of iteration
times.

The paper's interference source is the memory subsystem, so its
collectives are contention-free.  The NETWORK contention domain
(:class:`~repro.cluster.contention.ContentionDomain`) lifts that
restriction: each host's uplink to the switch is a *link* that
accumulates the network pressure of the flows crossing it
(:meth:`~repro.sim.pressure.PressureField.link_pressure_seen`), and a
collective crossing a pressured link pays a congestion premium
(:meth:`SwitchTopology.collective_cost` with ``link_pressure``).  With
every link flat (pressure 0) the costs reduce exactly to the
contention-free star.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import MAX_PRESSURE


@dataclass(frozen=True)
class SwitchTopology:
    """Uniform single-switch interconnect.

    Parameters
    ----------
    base_latency:
        Fixed cost (simulated seconds) of any collective or message.
    per_node_cost:
        Additional cost per participating node, modelling the
        serialization of an allreduce/allgather over the star.
    congestion_factor:
        Premium a collective pays when its most-loaded link sits at
        ``MAX_PRESSURE``: the cost scales by ``1 + congestion_factor``.
        The default 1.0 means a saturated uplink doubles the collective
        — the star serializes, so a full link halves effective
        goodput.
    """

    base_latency: float = 0.0005
    per_node_cost: float = 0.0001
    congestion_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.base_latency < 0 or self.per_node_cost < 0:
            raise ValueError("latencies must be non-negative")
        if self.congestion_factor < 0:
            raise ValueError("congestion_factor must be non-negative")

    def collective_cost(
        self, num_nodes: int, *, link_pressure: float = 0.0
    ) -> float:
        """Cost of one allreduce/barrier across ``num_nodes`` hosts.

        The star-serialization formula: with a single switch, a
        collective is a gather followed by a broadcast, and every
        participant's payload crosses the shared switch in turn —

        ``cost = base_latency + per_node_cost * num_nodes``

        i.e. one fixed fan-in/fan-out latency plus one serialization
        slot per participating host.  A single participant performs no
        communication, so the cost is 0.

        ``link_pressure`` is the pressure on the collective's
        most-loaded uplink (0-``MAX_PRESSURE``); the congestion-aware
        cost scales linearly up to ``1 + congestion_factor`` at a
        saturated link.  The default 0.0 reproduces the contention-free
        cost bit for bit.

        Raises
        ------
        ValueError
            If ``num_nodes`` is not at least 1 — a collective needs a
            participant — or ``link_pressure`` lies outside
            ``[0, MAX_PRESSURE]``.
        """
        if num_nodes < 1:
            raise ValueError(
                f"a collective needs at least one participant; "
                f"got num_nodes={num_nodes}"
            )
        if not 0.0 <= link_pressure <= MAX_PRESSURE:
            raise ValueError(
                f"link_pressure must be in [0, {MAX_PRESSURE}]; "
                f"got {link_pressure!r}"
            )
        if num_nodes == 1:
            return 0.0
        cost = self.base_latency + self.per_node_cost * num_nodes
        if link_pressure > 0.0:
            cost *= 1.0 + self.congestion_factor * (
                link_pressure / MAX_PRESSURE
            )
        return cost

    def shuffle_cost(
        self, num_nodes: int, data_scale: float = 1.0,
        *, link_pressure: float = 0.0,
    ) -> float:
        """Cost of an all-to-all shuffle (Hadoop/Spark stage boundary)."""
        if data_scale < 0:
            raise ValueError("data_scale must be non-negative")
        return self.collective_cost(
            num_nodes, link_pressure=link_pressure
        ) * (1.0 + data_scale)
