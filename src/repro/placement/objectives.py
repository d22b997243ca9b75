"""Placement objectives and constraints (Sections 5.2-5.3).

The placement algorithms optimize over *model predictions*: a candidate
placement is scored by predicting every instance's normalized execution
time and aggregating.  Two aggregates appear in the paper:

* the **sum of normalized runtimes weighted by VM count** (Figure 10's
  right-hand axis), minimized by both placers; and
* **QoS feasibility**: a mission-critical application must retain a
  fraction of its solo performance (80% in the experiments, i.e.
  normalized time <= 1/0.8 = 1.25).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import PlacementError
from repro.placement.assignment import Placement


def predict_placement(model, placement: Placement) -> Dict[str, float]:
    """Predicted normalized time per instance under a placement.

    ``model`` may be the interference-aware model or the naive
    proportional model — both expose ``predict_under_corunners``.
    Models exposing ``predict_placement_batch`` (the interference-aware
    family) are evaluated in one vectorized batch; results are
    bit-identical to :func:`predict_placement_scalar`, which remains
    the reference oracle.
    """
    batch = getattr(model, "predict_placement_batch", None)
    if batch is not None:
        return batch(placement)
    return predict_placement_scalar(model, placement)


def predict_placement_scalar(model, placement: Placement) -> Dict[str, float]:
    """One-instance-at-a-time reference path of :func:`predict_placement`."""
    predictions: Dict[str, float] = {}
    for spec in placement.instances:
        key = spec.instance_key
        predictions[key] = model.predict_under_corunners(
            spec.workload,
            placement.spanned_nodes(key),
            placement.co_runner_workloads(key),
        )
    return predictions


def weighted_total_time(
    predictions: Mapping[str, float], placement: Placement
) -> float:
    """Sum of normalized runtimes, weighted by instance weight."""
    total = 0.0
    for spec in placement.instances:
        total += spec.weight * predictions[spec.instance_key]
    return total


def weighted_average_speedup(
    times: Mapping[str, float],
    reference_times: Mapping[str, float],
    placement: Placement,
) -> float:
    """Weighted mean of per-instance speedups over reference times.

    The paper's Figure 11 metric: each application's performance is the
    speedup of its execution time over the same application's time in
    the worst placement; the overall figure is the VM-weighted average.
    """
    total_weight = 0.0
    total = 0.0
    for spec in placement.instances:
        key = spec.instance_key
        reference = reference_times[key]
        if times[key] <= 0:
            raise PlacementError(f"non-positive time for {key}")
        total += spec.weight * (reference / times[key])
        total_weight += spec.weight
    return total / total_weight


@dataclass(frozen=True)
class QoSConstraint:
    """A mission-critical instance's latency bound.

    Parameters
    ----------
    instance_key:
        The protected instance.
    max_normalized_time:
        Largest admissible normalized execution time; the paper's
        "80% of solo performance" is ``1 / 0.8 = 1.25``.
    """

    instance_key: str
    max_normalized_time: float = 1.25

    def __post_init__(self) -> None:
        if self.max_normalized_time < 1.0:
            raise PlacementError(
                "max_normalized_time below 1.0 is unsatisfiable even solo"
            )

    def satisfied_by(self, predictions: Mapping[str, float]) -> bool:
        """Whether the constraint holds under the given predictions."""
        return predictions[self.instance_key] <= self.max_normalized_time

    def violation(self, predictions: Mapping[str, float]) -> float:
        """How far beyond the bound the prediction is (0 if satisfied)."""
        return max(0.0, predictions[self.instance_key] - self.max_normalized_time)


# ----------------------------------------------------------------------
# Incremental (delta) evaluation
# ----------------------------------------------------------------------
#
# The annealing search proposes *unit swaps*: one unit of instance A
# trades nodes with one unit of instance B.  Only the two touched nodes
# change hands, so the only instances whose predicted time can move are
# those with a unit on either node — everyone else keeps the same
# spanned-node set and the same co-runners.  The protocol below lets
# the search re-predict just that handful while carrying the rest of
# the per-instance prediction table forward unchanged, which is what
# turns an O(instances) energy evaluation into an O(slots-per-node)
# one.

#: Per node, ``(rank, instance_key, workload)`` units in assignment order.
Residents = Dict[int, List[Tuple[int, str, str]]]


def _residents_index(placement: Placement) -> Residents:
    """:meth:`Placement.node_residents`, each unit with its assignment rank."""
    rank = {key: i for i, key in enumerate(placement._assignment)}
    return {
        node: [(rank[key], key, workload) for key, workload in units]
        for node, units in placement.node_residents().items()
    }


def _co_runner_names(
    residents: Residents, key: str, nodes: Iterable[int]
) -> Tuple[Tuple[str, ...], ...]:
    """Workloads of ``key``'s co-runners on each of ``nodes``, in turn.

    Each node's names keep assignment-rank order (NOT sorted):
    combining pressures sums floats in list order, so a reordered
    tuple could replay a bit-different result.
    """
    return tuple([
        tuple([w for _, k, w in residents[node] if k != key]) for node in nodes
    ])


@dataclass
class EnergyState:
    """A placement with its per-instance prediction table and energy.

    ``predictions`` is the cached table delta evaluation carries
    forward; ``energy`` is always re-aggregated from the full table so
    incremental and full evaluation agree bit-for-bit (no running-sum
    drift).  ``residents`` indexes the placement's units per node so a
    swap re-reads only its touched nodes (``None``: not indexed yet).
    """

    placement: Placement
    predictions: Dict[str, float]
    energy: float
    residents: Optional[Residents] = None


class IncrementalEnergy:
    """Protocol for placement energies that support delta evaluation.

    Implementations provide :meth:`full_state` (evaluate a placement
    from scratch) and :meth:`swap_state` (re-evaluate after a unit
    swap given the previous state).  Instances are also plain energy
    callables, so every consumer of ``EnergyFunction`` keeps working
    — :class:`~repro.placement.annealing.SimulatedAnnealingPlacer`
    simply takes the fast path when it detects the protocol.
    """

    def full_state(self, placement: Placement) -> EnergyState:
        """Evaluate ``placement`` from scratch."""
        raise NotImplementedError

    def swap_state(
        self,
        state: EnergyState,
        new_placement: Placement,
        touched_nodes: Iterable[int],
    ) -> EnergyState:
        """Evaluate ``new_placement``, reusing ``state`` where valid.

        ``touched_nodes`` are the nodes whose residents changed (the
        two endpoints of a unit swap).
        """
        raise NotImplementedError

    def __call__(self, placement: Placement) -> float:
        return self.full_state(placement).energy


class PredictionEnergy(IncrementalEnergy):
    """Base class for model-prediction-driven incremental energies.

    Subclasses implement :meth:`aggregate` (prediction table ->
    scalar energy); this class owns the expensive part — maintaining
    the per-instance prediction table across swaps — plus a memo of
    per-instance predictions keyed by the instance's workload and the
    co-runner names on each spanned node, in node order, which
    annealing revisits constantly.

    The contract: a prediction may depend on the co-runner names per
    spanned node and on the nodes' order, not on node ids.  Every model
    here (``InterferenceModel`` in both domains, ``OnlineModel``,
    ``NaiveProportionalModel``, ``MultiwayPredictor``) meets it: each
    reads ``co_runners.get(node)`` for each node in turn.  A miss
    still predicts from the real nodes.

    Parameters
    ----------
    model:
        Prediction model exposing ``predict_under_corunners``.
    """

    #: Memo entries kept before stale entries are evicted (a full
    #: annealing search revisits far fewer distinct local
    #: configurations).
    MEMO_LIMIT = 200_000

    def __init__(self, model) -> None:
        self.model = model
        self._memo: Dict[Tuple, float] = {}

    # -- subclass surface ---------------------------------------------
    def aggregate(
        self, predictions: Mapping[str, float], placement: Placement,
        residents: Residents,
    ) -> float:
        """Scalar energy of a full prediction table (cheap).

        ``residents`` is ``placement``'s :data:`Residents` index.
        """
        raise NotImplementedError

    # -- prediction table maintenance ---------------------------------
    def _store(self, memo_key: Tuple, value: float) -> None:
        if len(self._memo) >= self.MEMO_LIMIT:
            # Evict only the oldest half (dict preserves insertion
            # order) so a long search keeps its warm recent entries
            # instead of losing the whole table at the limit.
            for stale in list(islice(iter(self._memo), self.MEMO_LIMIT // 2)):
                del self._memo[stale]
        self._memo[memo_key] = value

    def _predict_table(
        self, placement: Placement, keys: Iterable[str],
        residents: Optional[Residents] = None,
    ) -> Dict[str, float]:
        """Memoized predictions for ``keys``; misses predicted as found."""
        if residents is None:
            residents = _residents_index(placement)
        by_key, assignment = placement._by_key, placement._assignment
        table: Dict[str, float] = {}
        for key in keys:
            workload = by_key[key].workload
            # An instance's units sit on distinct nodes, so this is
            # ``spanned_nodes``.
            nodes = sorted(assignment[key])
            layout = _co_runner_names(residents, key, nodes)
            value = self._memo.get((workload, layout))
            if value is None:
                co_runners = dict(zip(nodes, map(list, layout)))
                value = self.model.predict_under_corunners(
                    workload, nodes, co_runners
                )
                self._store((workload, layout), value)
            table[key] = value
        return table

    def _predict(self, placement: Placement, key: str) -> float:
        return self._predict_table(placement, [key])[key]

    def full_state(self, placement: Placement) -> EnergyState:
        residents = _residents_index(placement)
        keys = [spec.instance_key for spec in placement.instances]
        predictions = self._predict_table(placement, keys, residents)
        energy = self.aggregate(predictions, placement, residents)
        return EnergyState(placement, predictions, energy, residents)

    def swap_state(
        self,
        state: EnergyState,
        new_placement: Placement,
        touched_nodes: Iterable[int],
    ) -> EnergyState:
        touched = set(touched_nodes)
        residents = state.residents
        if residents is None:
            residents = _residents_index(new_placement)
        else:
            # Only the touched nodes traded units; ``swap_units`` keeps
            # the assignment's key order, so the ranks stay valid.
            assignment = new_placement._assignment
            pool = {u[1]: u for node in touched for u in residents[node]}
            residents = dict(residents)
            for node in touched:
                residents[node] = sorted(
                    unit for unit in pool.values()
                    if node in assignment[unit[1]]
                )
        changed = dict.fromkeys(
            unit[1] for node in touched for unit in residents[node]
        )
        table = self._predict_table(new_placement, changed, residents)
        predictions = {**state.predictions, **table}
        energy = self.aggregate(predictions, new_placement, residents)
        return EnergyState(new_placement, predictions, energy, residents)


class WeightedTimeEnergy(PredictionEnergy):
    """Total weighted normalized runtime (Section 5.3's objective).

    ``sign=-1`` turns the minimizer into the *worst-placement* search
    of Figure 11.
    """

    def __init__(self, model, *, sign: float = 1.0) -> None:
        super().__init__(model)
        if sign not in (1.0, -1.0):
            raise PlacementError("sign must be +1.0 or -1.0")
        self.sign = sign

    def aggregate(
        self, predictions: Mapping[str, float], placement: Placement,
        residents: Residents,
    ) -> float:
        return self.sign * weighted_total_time(predictions, placement)
