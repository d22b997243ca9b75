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
from typing import Dict, List, Mapping, Tuple

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
# spanned-node set and the same co-runners.  A :class:`SearchState`
# applies each swap in place and re-predicts just that handful, which
# is what turns an O(instances) energy evaluation into an
# O(slots-per-node) one.

#: A resident unit: ``(assignment rank, instance_key, workload)``.
Unit = Tuple[int, str, str]


def _co_runner_names(units: List[Unit]) -> Dict[str, Tuple[str, ...]]:
    """Each resident's co-runner workloads on one node.

    The names keep assignment-rank order (NOT sorted): combining
    pressures sums floats in list order, so a reordered tuple could
    replay a bit-different result.
    """
    return {
        key: tuple([w for _, k, w in units if k != key]) for _, key, _ in units
    }


class SearchState:
    """One annealing pass's placement, swapped and unswapped in place.

    Built by :meth:`PredictionEnergy.full_state`.  It carries the
    assignment (each instance's node per unit), each node's residents
    in assignment order, each node's co-runner names per resident and
    the per-instance prediction table in instance order.  A swap
    rebuilds only its two nodes' residents and names and re-predicts
    only the instances on them; ``energy`` is re-aggregated from the
    full table every time, so it equals a from-scratch evaluation of
    the same placement bit for bit (no running-sum drift).
    """

    def __init__(self, objective: "PredictionEnergy", placement: Placement) -> None:
        self._objective = objective
        #: The placement the pass started from (instances, cluster shape).
        self.start = placement
        self.assignment: Dict[str, List[int]] = {
            key: list(nodes) for key, nodes in placement._assignment.items()
        }
        self._units: Dict[str, Unit] = {
            key: (rank, key, placement._by_key[key].workload)
            for rank, key in enumerate(self.assignment)
        }
        self.residents: Dict[int, List[Unit]] = {}
        for key, nodes in self.assignment.items():
            for node in nodes:
                self.residents.setdefault(node, []).append(self._units[key])
        #: Co-runner names per resident composition: a pass sees few.
        self._names_of: Dict[Tuple[Unit, ...], Dict[str, Tuple[str, ...]]] = {}
        self.names = {
            node: self._names(units) for node, units in self.residents.items()
        }
        self.predictions: Dict[str, float] = {
            spec.instance_key: self._predict(spec.instance_key)
            for spec in placement.instances
        }
        self.energy = objective.aggregate(self)
        self._undo: Tuple = ()

    def _names(self, units: List[Unit]) -> Dict[str, Tuple[str, ...]]:
        """:func:`_co_runner_names` of ``units``, memoized per pass."""
        composition = tuple(units)
        names = self._names_of.get(composition)
        if names is None:
            names = self._names_of[composition] = _co_runner_names(units)
        return names

    def co_runners(
        self, key: str
    ) -> Tuple[List[int], Tuple[Tuple[str, ...], ...]]:
        """``key``'s nodes, sorted, and its co-runners' names on each."""
        nodes = sorted(self.assignment[key])
        names = self.names
        return nodes, tuple([names[node][key] for node in nodes])

    def _predict(self, key: str) -> float:
        nodes, layout = self.co_runners(key)
        return self._objective._lookup(self._units[key][2], nodes, layout)

    def swap(self, key_a: str, unit_a: int, key_b: str, unit_b: int) -> float:
        """Exchange two units' nodes and return the new energy.

        The caller has checked the swap: the units sit on different
        nodes, and neither instance has a unit on the other's node.
        """
        assignment, residents, names = self.assignment, self.residents, self.names
        nodes_a, nodes_b = assignment[key_a], assignment[key_b]
        node_a, node_b = nodes_a[unit_a], nodes_b[unit_b]
        nodes_a[unit_a], nodes_b[unit_b] = node_b, node_a
        mover_a, mover_b = self._units[key_a], self._units[key_b]
        was_a, was_b = residents[node_a], residents[node_b]
        residents[node_a] = now_a = sorted(
            [unit for unit in was_a if unit is not mover_a] + [mover_b]
        )
        residents[node_b] = now_b = sorted(
            [unit for unit in was_b if unit is not mover_b] + [mover_a]
        )
        names_were = names[node_a], names[node_b]
        names[node_a], names[node_b] = self._names(now_a), self._names(now_b)
        predictions = self.predictions
        changed = dict.fromkeys([unit[1] for unit in now_a + now_b])
        self._undo = (
            key_a, unit_a, key_b, unit_b, was_a, was_b, names_were,
            [(key, predictions[key]) for key in changed], self.energy,
        )
        for key in changed:
            predictions[key] = self._predict(key)
        self.energy = self._objective.aggregate(self)
        return self.energy

    def undo(self) -> None:
        """Revert the last :meth:`swap`."""
        (
            key_a, unit_a, key_b, unit_b, was_a, was_b, names_were,
            predicted, self.energy,
        ) = self._undo
        nodes_a, nodes_b = self.assignment[key_a], self.assignment[key_b]
        node_b, node_a = nodes_a[unit_a], nodes_b[unit_b]
        nodes_a[unit_a], nodes_b[unit_b] = node_a, node_b
        self.residents[node_a], self.residents[node_b] = was_a, was_b
        self.names[node_a], self.names[node_b] = names_were
        self.predictions.update(predicted)

    def placement(self) -> Placement:
        """The current assignment as a :class:`Placement`."""
        return self.start._reassigned(
            {key: tuple(nodes) for key, nodes in self.assignment.items()}
        )


class PredictionEnergy:
    """Base class for model-prediction-driven placement energies.

    Subclasses implement :meth:`aggregate` (search state -> scalar
    energy).  This class owns the expensive part: a memo of
    per-instance predictions keyed by the instance's workload and the
    co-runner names on each spanned node, in node order, which
    annealing revisits constantly.  An instance is a plain energy
    callable, and :class:`~repro.placement.annealing.SimulatedAnnealingPlacer`
    anneals it on one :class:`SearchState` per pass (see
    :meth:`full_state`).

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

    def aggregate(self, state: SearchState) -> float:
        """Scalar energy of ``state``'s full prediction table (cheap).

        It may read the table, ``state.start``'s instances and
        :meth:`SearchState.co_runners`, nothing else a swap changes.
        """
        raise NotImplementedError

    def _store(self, memo_key: Tuple, value: float) -> None:
        if len(self._memo) >= self.MEMO_LIMIT:
            # Evict only the oldest half (dict preserves insertion
            # order) so a long search keeps its warm recent entries
            # instead of losing the whole table at the limit.
            for stale in list(islice(iter(self._memo), self.MEMO_LIMIT // 2)):
                del self._memo[stale]
        self._memo[memo_key] = value

    def _lookup(
        self, workload: str, nodes: List[int],
        layout: Tuple[Tuple[str, ...], ...],
    ) -> float:
        """Memoized prediction of ``workload`` under ``layout`` on ``nodes``."""
        value = self._memo.get((workload, layout))
        if value is None:
            value = self.model.predict_under_corunners(
                workload, nodes, dict(zip(nodes, map(list, layout)))
            )
            self._store((workload, layout), value)
        return value

    def full_state(self, placement: Placement) -> SearchState:
        """Evaluate ``placement`` from scratch, as a search state."""
        return SearchState(self, placement)

    def __call__(self, placement: Placement) -> float:
        return self.full_state(placement).energy


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

    def aggregate(self, state: SearchState) -> float:
        return self.sign * weighted_total_time(state.predictions, state.start)
