"""Deterministic cluster sharding: one big cluster, many cells.

A *cell* is a seeded, deterministic view over a slice of the cluster's
nodes.  Each cell runs its own flat
:class:`~repro.service.loop.ConsolidationService` (admission +
incremental-annealing reschedule) against a cell-local
:class:`~repro.cluster.cluster.ClusterSpec`, so every algorithm in the
placement and service layers works unchanged at cell granularity.

Sharding is a pure function of ``(cluster size, cell count, seed)``:
node membership is drawn by shuffling the global node ids with a
``stable_seed``-keyed generator and dealing contiguous, near-equal
slices.  Same seed, same assignment — the property the scale layer's
determinism tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from repro._util import make_rng, stable_seed
from repro.cluster.cluster import ClusterSpec
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CellSpec:
    """One cell's slice of the cluster.

    Parameters
    ----------
    cell_id:
        Dense cell index (0-based).
    node_ids:
        The *global* node ids this cell owns, sorted.  Placement inside
        the cell uses cell-local ids ``0..len(node_ids)-1``; this tuple
        is the mapping back to the global inventory.
    spec:
        The cell-local cluster description
        (``num_nodes == len(node_ids)``, all other fields inherited
        from the parent spec).
    """

    cell_id: int
    node_ids: Tuple[int, ...]
    spec: ClusterSpec

    @property
    def num_nodes(self) -> int:
        """Nodes in this cell."""
        return len(self.node_ids)


def shard_cluster(
    cluster: ClusterSpec,
    n_cells: int,
    *,
    seed: int = 0,
) -> List[CellSpec]:
    """Partition a cluster into ``n_cells`` deterministic cells.

    Parameters
    ----------
    cluster:
        The cluster to partition.
    n_cells:
        Number of cells; must not exceed the node count.
    seed:
        Shard seed.  Node membership derives from
        ``stable_seed("shard", num_nodes, n_cells, seed)`` only, so
        the same arguments always produce the same assignment.

    Returns
    -------
    list of CellSpec
        ``n_cells`` cells ordered by ``cell_id``; sizes differ by at
        most one node.  The 1-cell shard is the identity view
        (``node_ids == (0, ..., num_nodes - 1)``).
    """
    if n_cells <= 0:
        raise ConfigurationError("n_cells must be positive")
    if n_cells > cluster.num_nodes:
        raise ConfigurationError(
            f"cannot shard {cluster.num_nodes} node(s) into {n_cells} cells"
        )
    order = list(range(cluster.num_nodes))
    if n_cells > 1:
        rng = make_rng(stable_seed("shard", cluster.num_nodes, n_cells, seed))
        rng.shuffle(order)
    base, extra = divmod(cluster.num_nodes, n_cells)
    cells: List[CellSpec] = []
    start = 0
    for cell_id in range(n_cells):
        size = base + (1 if cell_id < extra else 0)
        node_ids = tuple(sorted(order[start:start + size]))
        start += size
        cells.append(
            CellSpec(
                cell_id=cell_id,
                node_ids=node_ids,
                spec=replace(cluster, num_nodes=len(node_ids)),
            )
        )
    return cells
