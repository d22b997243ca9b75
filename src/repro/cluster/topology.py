"""Interconnect model.

The testbed connects hosts via a single 10 GbE switch (Section 3.1), so
the topology is a uniform star: every inter-node message pays the same
base latency plus a per-participant serialization term.  Collective
costs here set the *baseline* communication component of iteration
times.

The paper's interference source is the memory subsystem, so these
costs are contention-free.  The NETWORK contention domain
(:class:`~repro.cluster.contention.ContentionDomain`) adds congestion
in the executor, not here: each host's uplink to the switch is a
*link* that accumulates the network pressure of the flows crossing it
(:meth:`~repro.sim.pressure.PressureField.link_pressure_seen`), and
:mod:`repro.sim.execution` scales a stage's synchronization cost by
the workload's network sensitivity at its most congested link.
"""

from __future__ import annotations

from dataclasses import dataclass


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
    """

    base_latency: float = 0.0005
    per_node_cost: float = 0.0001

    def __post_init__(self) -> None:
        if self.base_latency < 0 or self.per_node_cost < 0:
            raise ValueError("latencies must be non-negative")

    def collective_cost(self, num_nodes: int) -> float:
        """Cost of one allreduce/barrier across ``num_nodes`` hosts.

        The star-serialization formula: with a single switch, a
        collective is a gather followed by a broadcast, and every
        participant's payload crosses the shared switch in turn —

        ``cost = base_latency + per_node_cost * num_nodes``

        i.e. one fixed fan-in/fan-out latency plus one serialization
        slot per participating host.  A single participant performs no
        communication, so the cost is 0.

        Raises
        ------
        ValueError
            If ``num_nodes`` is not at least 1 — a collective needs a
            participant.
        """
        if num_nodes < 1:
            raise ValueError(
                f"a collective needs at least one participant; "
                f"got num_nodes={num_nodes}"
            )
        if num_nodes == 1:
            return 0.0
        return self.base_latency + self.per_node_cost * num_nodes

    def shuffle_cost(self, num_nodes: int) -> float:
        """Cost of an all-to-all shuffle (Hadoop/Spark stage boundary):
        a collective's cost plus as much again for the data it moves."""
        return self.collective_cost(num_nodes) * 2.0
