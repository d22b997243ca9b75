"""The sharded consolidation service: cells under a two-level coordinator.

:class:`ShardedConsolidationService` is the scale layer's drop-in
counterpart to the flat
:class:`~repro.service.loop.ConsolidationService`: the same seeded
traffic day, the same byte-stable event log and snapshots, but the
cluster is partitioned into cells (:mod:`repro.scale.sharding`) that
each run the flat epoch body independently — optionally fanned out
over worker processes via :func:`repro.parallel.fan_out`.  Above the
cells sit the two global tiers:

* the :class:`~repro.scale.router.HeadroomRouter` assigns each arrival
  to the cell with the most predicted QoS headroom, and
* the :class:`~repro.scale.coordinator.GlobalCoordinator` watches
  per-cell margins after every epoch and moves a collapsing cell's
  worst tenant to a safer cell (``cell_migrate`` events), gated like
  intra-cell rescheduling.

Every cell runs the same code at any cell count: each merged event
carries a ``cell`` payload field, every span recorded inside a cell's
epoch carries a ``cell`` attribute, and the per-epoch global snapshot
aggregates the cells (plus an additive per-cell ``cells`` section).
One cell is not a special case here: ``repro serve --cells 1`` simply
builds the flat service.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro._util import stable_seed
from repro.core.online import OnlineModel
from repro.errors import ServiceError
from repro.obs import recorder as _obs
from repro.parallel import fan_out
from repro.scale.coordinator import GlobalCoordinator
from repro.scale.router import HeadroomRouter, free_slot_count
from repro.scale.sharding import CellSpec, shard_cluster
from repro.service.jobs import Job
from repro.service.loop import (
    ConsolidationService,
    EpochService,
    ServiceConfig,
)
from repro.service.telemetry import MetricsSnapshot
from repro.sim.runner import ClusterRunner


class RoutedStream:
    """A per-cell arrival feed the router fills epoch by epoch.

    Cells consume it through the ordinary ``arrivals(epoch)`` stream
    protocol, so the flat epoch body needs no routing awareness.  The
    router must :meth:`push` an epoch's (possibly empty) job list
    before the cell runs that epoch.
    """

    def __init__(self) -> None:
        self._by_epoch: Dict[int, List[Job]] = {}

    def push(self, epoch: int, jobs: Sequence[Job]) -> None:
        """Set the jobs routed to this cell for ``epoch``."""
        self._by_epoch[epoch] = list(jobs)

    def arrivals(self, epoch: int) -> List[Job]:
        """The jobs routed here for ``epoch`` (empty if none)."""
        return list(self._by_epoch.get(epoch, ()))


@dataclass
class Cell:
    """One cell: its shard, flat service, and routed feed.

    ``consumed`` tracks how many of the cell log's events have been
    merged into the global log (merging is incremental per epoch).
    """

    cell_id: int
    shard: CellSpec
    service: ConsolidationService
    stream: RoutedStream
    consumed: int = field(default=0)


def _cell_epoch(item: Tuple[ConsolidationService, int]) -> ConsolidationService:
    """Fan-out worker body: run one cell's epoch, ship the service back."""
    service, epoch = item
    service.run_epoch(epoch)
    return service


class ShardedConsolidationService(EpochService):
    """Cells + router + coordinator behind the flat service's interface.

    Shares the flat service's epoch protocol
    (:class:`~repro.service.loop.EpochService`), so ``repro serve``
    treats flat and sharded days uniformly.

    Parameters
    ----------
    cells:
        The cells, ordered by ``cell_id`` (see
        :func:`build_sharded_service`).
    stream:
        The *global* arrival source; the router distributes its jobs
        into the cells' :class:`RoutedStream` feeds.
    coordinator:
        The global tier (a default :class:`GlobalCoordinator` when
        omitted); every arrival is routed by a :class:`HeadroomRouter`.
    seed:
        Root seed, recorded in checkpoints for resume validation.
    cell_workers:
        Worker processes the per-cell epochs fan out over (0 or 1 =
        serial, the deterministic-trace default; results are identical
        either way, but worker-side spans are lost to the trace).
        Negative counts are rejected.
    """

    def __init__(
        self,
        cells: Sequence[Cell],
        stream,
        *,
        coordinator: Optional[GlobalCoordinator] = None,
        seed: int = 0,
        cell_workers: int = 0,
    ) -> None:
        if not cells:
            raise ServiceError("need at least one cell")
        if [cell.cell_id for cell in cells] != list(range(len(cells))):
            raise ServiceError("cells must be dense and ordered by cell_id")
        if cell_workers < 0:
            raise ServiceError("cell_workers must be non-negative")
        super().__init__(seed)
        self.cells = list(cells)
        self.stream = stream
        self.router = HeadroomRouter()
        self.coordinator = coordinator or GlobalCoordinator()
        self.cell_workers = cell_workers

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cell_migrations_total(self) -> int:
        """Cross-cell moves executed so far."""
        return sum(cell.service.migrations_in_total for cell in self.cells)

    @property
    def cell_services(self) -> Tuple[ConsolidationService, ...]:
        """The flat services a checkpoint captures, in cell order."""
        return tuple(cell.service for cell in self.cells)

    def cell(self, cell_id: int) -> Cell:
        """The cell with ``cell_id``."""
        if not 0 <= cell_id < len(self.cells):
            raise ServiceError(f"no cell {cell_id}")
        return self.cells[cell_id]

    # ------------------------------------------------------------------
    # The sharded epoch
    # ------------------------------------------------------------------
    def _epoch(self, epoch: int) -> MetricsSnapshot:
        """Route, run every cell, rebalance, snapshot — one epoch."""
        with _obs.RECORDER.span(
            "scale.epoch", epoch=epoch, cells=len(self.cells)
        ) as span:
            self._route(epoch)
            self._run_cells(epoch)
            self._merge_cell_events()
            with _obs.RECORDER.span("scale.rebalance", epoch=epoch):
                moves = self.coordinator.rebalance(
                    self.cells, epoch, self.log, self.router
                )
            snapshot = self._snapshot(epoch)
            _obs.RECORDER.count("scale.epochs")
            span.set(
                running=snapshot.running_jobs,
                queued=snapshot.queued_jobs,
                cell_migrations=len(moves),
            )
        self.snapshots.append(snapshot)
        return snapshot

    def _route(self, epoch: int) -> None:
        """Distribute this epoch's arrivals into the cells' feeds.

        Routing sees the placements left by the *previous* epoch (the
        operationally honest view: the router cannot know which
        tenants will depart this epoch).
        """
        arrivals = self.stream.arrivals(epoch)
        with _obs.RECORDER.span(
            "scale.route", epoch=epoch, arrivals=len(arrivals)
        ):
            queue_room = {
                cell.cell_id: max(
                    0,
                    cell.service.config.max_queue_depth
                    - cell.service.queue_depth,
                )
                for cell in self.cells
            }
            assignments = self.router.route_many(
                self.cells, arrivals, queue_room=queue_room
            )
            buckets: Dict[int, List[Job]] = {
                cell.cell_id: [] for cell in self.cells
            }
            for job in arrivals:
                buckets[assignments[job.job_id]].append(job)
            for cell in self.cells:
                cell.stream.push(epoch, buckets[cell.cell_id])

    def _run_cells(self, epoch: int) -> None:
        """Run every cell's epoch body, serially or fanned out.

        With ``cell_workers`` above 1 the cells go through
        :func:`~repro.parallel.fan_out`; otherwise they run in order,
        in-process.  Cells are independent within an epoch, so both
        paths produce identical state.  Fanned-out cells record into
        their workers' (null) recorders, so traces of parallel days
        only carry parent-side spans.
        """
        if self.cell_workers > 1:
            returned = fan_out(
                _cell_epoch,
                [(cell.service, epoch) for cell in self.cells],
                max_workers=self.cell_workers,
            )
            for cell, service in zip(self.cells, returned):
                # The returned service is a pickled copy holding its own
                # RoutedStream; re-link it to the cell's feed so the
                # router's future pushes stay visible.
                service.stream = cell.stream
                cell.service = service
            return
        for cell in self.cells:
            cell.service.run_epoch(epoch)

    def _merge_cell_events(self) -> None:
        """Append each cell's fresh events to the global log, in cell order.

        Every merged payload gains a ``cell`` field naming its origin.
        """
        for cell in self.cells:
            for event in cell.service.log.since(cell.consumed):
                payload = dict(event.payload)
                payload["cell"] = cell.cell_id
                self.log.append(event.kind, event.epoch, **payload)
            cell.consumed = len(cell.service.log)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _snapshot(self, epoch: int) -> MetricsSnapshot:
        cell_snaps = [cell.service.snapshots[-1] for cell in self.cells]
        slots = occupied = 0
        for cell in self.cells:
            # Live node count == spec.num_nodes for fixed-pool cells;
            # elastic cells contribute their current pool size.
            slots += (
                cell.service.live_node_count()
                * cell.service.admission.unit_slots_per_node
            )
            occupied += sum(job.num_units for job in cell.service.tenants)
        observed: set = set()
        workloads: set = set()
        for cell in self.cells:
            staleness = cell.service.model.staleness_report()
            observed |= {w for w, count, _, _ in staleness if count > 0}
            workloads |= set(cell.service.model.workloads)
        rows = []
        for cell, snap in zip(self.cells, cell_snaps):
            margin = cell.service.qos_margin()
            rows.append({
                "cell": cell.cell_id,
                "nodes": cell.shard.num_nodes,
                "running_jobs": snap.running_jobs,
                "queued_jobs": snap.queued_jobs,
                "free_slots": free_slot_count(cell),
                "utilization": round(cell.service.utilization(), 6),
                "worst_qos_margin": (
                    None if margin is None else round(margin, 6)
                ),
                "migrated_units_total": snap.migrated_units_total,
                "migrations_in_total": cell.service.migrations_in_total,
                "migrations_out_total": cell.service.migrations_out_total,
            })
        return MetricsSnapshot(
            epoch=epoch,
            running_jobs=sum(s.running_jobs for s in cell_snaps),
            queued_jobs=sum(s.queued_jobs for s in cell_snaps),
            utilization=occupied / slots if slots else 0.0,
            admitted_total=sum(s.admitted_total for s in cell_snaps),
            rejected_total=sum(s.rejected_total for s in cell_snaps),
            completed_total=sum(s.completed_total for s in cell_snaps),
            migration_epochs_total=sum(
                s.migration_epochs_total for s in cell_snaps
            ),
            migrated_units_total=sum(
                s.migrated_units_total for s in cell_snaps
            ),
            qos_checks_total=sum(s.qos_checks_total for s in cell_snaps),
            qos_violations_total=sum(
                s.qos_violations_total for s in cell_snaps
            ),
            model_observations=sum(s.model_observations for s in cell_snaps),
            unobserved_workloads=len(workloads - observed),
            cells=tuple(rows),
        )


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def build_sharded_service(
    model,
    cluster,
    n_cells: int,
    stream,
    *,
    seed: int = 0,
    config: Optional[ServiceConfig] = None,
    coordinator: Optional[GlobalCoordinator] = None,
    cell_workers: int = 0,
    runner_factory=None,
    degraded_workloads: Optional[Sequence[str]] = None,
    provider_factory=None,
) -> ShardedConsolidationService:
    """Shard a cluster and stand up one flat service per cell.

    Parameters
    ----------
    model:
        The profiled *base* :class:`~repro.core.model.InterferenceModel`.
        Each cell wraps it in its own
        :class:`~repro.core.online.OnlineModel`, so cells learn
        corrections from their own measurements independently (passing
        an ``OnlineModel`` is rejected — shared corrections would
        entangle the cells).
    cluster:
        :class:`~repro.cluster.cluster.ClusterSpec` to shard.
    n_cells:
        Cell count.  Every count runs the same routed, coordinated
        loop; for a day identical to the flat service, build the flat
        :class:`~repro.service.loop.ConsolidationService` instead (as
        ``repro serve --cells 1`` does).
    stream:
        Global arrival source (``arrivals(epoch)``).
    seed:
        Root seed.  Cells derive ``stable_seed(seed, "cell", cell_id)``
        so their searches and measurements are independent streams.
    config:
        Every cell's :class:`~repro.service.loop.ServiceConfig`.  Its
        ``migration_cost`` gates the coordinator's cross-cell moves as
        well as each cell's own rescheduling.
    runner_factory:
        ``f(shard, cell_seed) -> ClusterRunner`` building each cell's
        measurement environment; defaults to a
        :class:`~repro.sim.runner.ClusterRunner` over the shard's spec.
    degraded_workloads:
        Workloads already known degraded (e.g. from profiling-time
        fallbacks); seeded into every cell runner's faulted set so
        admission stays conservative about them.
    provider_factory:
        Optional ``f(shard, cell_seed) -> CapacityProvider | None``
        attaching a capacity provider per cell.  An elastic cell's
        runner must be built at the provider's ``max_nodes`` ceiling
        (pair this with a matching ``runner_factory``).  A cell whose
        factory returns ``None``, and every cell when the factory is
        ``None`` (the default), runs on the fixed pool its service
        builds over its runner's nodes.
    """
    if isinstance(model, OnlineModel):
        raise ServiceError(
            "pass the base model: each cell wraps its own OnlineModel"
        )
    cells: List[Cell] = []
    for shard in shard_cluster(cluster, n_cells, seed=seed):
        cell_seed = stable_seed(seed, "cell", shard.cell_id)
        if runner_factory is None:
            runner = ClusterRunner(shard.spec, base_seed=cell_seed)
        else:
            runner = runner_factory(shard, cell_seed)
        if degraded_workloads:
            runner.faulted_workloads.update(degraded_workloads)
        routed = RoutedStream()
        service = ConsolidationService(
            runner,
            model,
            routed,
            config=config,
            seed=cell_seed,
            cell_id=shard.cell_id,
            provider=(
                provider_factory(shard, cell_seed)
                if provider_factory is not None
                else None
            ),
        )
        cells.append(Cell(shard.cell_id, shard, service, routed))
    return ShardedConsolidationService(
        cells,
        stream,
        coordinator=coordinator,
        seed=seed,
        cell_workers=cell_workers,
    )
