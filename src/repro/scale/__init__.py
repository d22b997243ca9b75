"""The scale layer: sharded hierarchical consolidation.

The flat :class:`~repro.service.loop.ConsolidationService` is faithful
to the paper's 8-node testbed but does one global admission check and
one full-cluster annealing search per epoch — hopeless at thousands of
nodes.  This package makes the reproduction cluster-scale:

* :mod:`repro.scale.sharding` — seeded, deterministic partitioning of
  a cluster into *cells*, each a flat service over its own slice;
* :mod:`repro.scale.router` — the :class:`HeadroomRouter`, a cheap
  global tier scoring arrivals against per-cell predicted QoS headroom
  (each cell's admission candidates, scored as one
  ``predict_placements_batch`` wave);
* :mod:`repro.scale.coordinator` — the :class:`GlobalCoordinator`,
  which watches per-cell margins each epoch and triggers cross-cell
  migration only on margin collapse, gated like intra-cell
  rescheduling;
* :mod:`repro.scale.service` — the
  :class:`ShardedConsolidationService` tying it together behind the
  flat service's interface (``repro serve --cells N``), checkpointed
  in the flat service's own
  :class:`~repro.service.checkpoint.ServiceCheckpoint` format (one
  cell entry per cell);
* :mod:`repro.scale.scenario` — the seeded 1000-node, 10k-job
  traffic day the ``scale-smoke`` CI job replays.

Each cell is an unmodified flat service, and the sharded service is a
uniform loop over its cells; one cell is simply the flat service
(``repro serve --cells 1``), so the scale layer is a strict superset,
not a fork, of the paper-faithful controller.
"""

from repro.scale.coordinator import CoordinatorConfig, GlobalCoordinator
from repro.scale.router import CellScore, HeadroomRouter, free_slot_count
from repro.scale.scenario import (
    SCALE_DAY_ARRIVAL_RATE,
    SCALE_DAY_CELLS,
    SCALE_DAY_EPOCHS,
    SCALE_DAY_MIX,
    SCALE_DAY_NODES,
    SCALE_DAY_SEED,
    scale_day_service,
    scale_service_config,
)
from repro.scale.service import (
    Cell,
    RoutedStream,
    ShardedConsolidationService,
    build_sharded_service,
)
from repro.scale.sharding import CellSpec, shard_cluster

__all__ = [
    "Cell",
    "CellScore",
    "CellSpec",
    "CoordinatorConfig",
    "GlobalCoordinator",
    "HeadroomRouter",
    "RoutedStream",
    "SCALE_DAY_ARRIVAL_RATE",
    "SCALE_DAY_CELLS",
    "SCALE_DAY_EPOCHS",
    "SCALE_DAY_MIX",
    "SCALE_DAY_NODES",
    "SCALE_DAY_SEED",
    "ShardedConsolidationService",
    "build_sharded_service",
    "free_slot_count",
    "scale_day_service",
    "scale_service_config",
    "shard_cluster",
]
