"""Frozen batch-prediction kernel for the placement/admission hot loop.

Every annealing swap, admission check, and epoch reschedule funnels
through :meth:`~repro.core.model.InterferenceModel.predict` one
instance at a time.  The scalar path is the reference the paper's
Figure-5 procedure is tested against, but it pays Python dispatch,
profile lookups, and a policy conversion per call.  This module
flattens a model into a :class:`PredictionKernel` — a frozen snapshot
holding each profile's propagation matrix, heterogeneity policy, and
bubble score behind contiguous NumPy arrays — so a whole placement (or
a whole admission wave, in the factored form of
:meth:`PredictionKernel.admission_wave`) is scored in a handful of
array operations.

**Bit-identity contract.**  The batch path must be a pure accelerator:
every float it produces is bit-identical to the scalar path's.  Three
rules make that hold:

* Pressure combination (:func:`~repro.cluster.contention.combine_pressures`)
  uses transcendentals whose vectorized rounding is not guaranteed to
  match ``math.log2``; the kernel therefore never vectorizes it — it
  calls the scalar function once per distinct co-runner score tuple and
  memoizes (placements reuse a handful of local configurations, so the
  cache hit rate is high).
* Policy conversion and matrix lookup use only elementwise ``+ - * /``,
  ``min``/``max``, and comparisons, replayed in the scalar operation
  order (see :meth:`HeterogeneityPolicy.convert_batch
  <repro.core.policies.HeterogeneityPolicy.convert_batch>` and
  :meth:`PropagationMatrix.lookup_batch
  <repro.core.curves.PropagationMatrix.lookup_batch>`).
* Anything anomalous — unknown workload, empty vector, NaN or negative
  pressure — drops the whole batch back onto the scalar path, which
  raises the exact scalar exception in request order.

The kernel is a *snapshot*: matrices are deep-copied at build time, and
:class:`~repro.core.model.InterferenceModel` rebuilds it whenever
``add_profile`` bumps the model's version counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.contention import combine_pressures
from repro.core.curves import HomogeneousSetting, PropagationMatrix
from repro.core.policies import HeterogeneityPolicy, get_policy
from repro.errors import ModelError

#: Below this many rows in a per-workload group, the array machinery
#: costs more than it saves; such groups run the scalar conversion and
#: lookup directly (which is trivially bit-identical — it *is* the
#: scalar computation).  With the float-table lookup, one group of
#: N+1 MAX rows over 4-node vectors costs the same both ways at 12 rows
#: on 4x5 and 8x9 matrices, and the array path wins from 16 rows.
SMALL_GROUP = 12

#: What one batched prediction asks for; ``interference`` takes the
#: same forms :meth:`InterferenceModel.predict` accepts (a
#: ``HomogeneousSetting``, a ``(pressure, count)`` tuple, or a per-node
#: pressure vector).
@dataclass(frozen=True)
class PredictionRequest:
    """One entry of a :meth:`InterferenceModel.predict_batch` call."""

    workload: str
    interference: object


@dataclass(frozen=True)
class _WorkloadTable:
    """Flattened per-workload profile data inside a kernel snapshot."""

    workload: str
    matrix: PropagationMatrix
    max_count: float
    policy: HeterogeneityPolicy
    bubble_score: float


@dataclass(frozen=True)
class AdmissionWave:
    """An admission wave in factored form (see
    :meth:`PredictionKernel.admission_wave`).

    ``workloads``/``vectors`` are the wave's distinct rows.  Candidate
    ``c``'s instance ``k`` reads row ``base_rows[k]`` unless a changed
    cell ``(candidates[i], columns[i]) == (c, k)`` points it at
    ``rows[i]`` instead; the job is column ``num_base`` and always a
    changed cell.
    """

    workloads: List[str]
    vectors: List[List[float]]
    base_rows: np.ndarray
    candidates: np.ndarray
    columns: np.ndarray
    rows: np.ndarray
    num_base: int
    num_candidates: int

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """Per-row ``values`` as a ``(candidates, num_base + 1)`` matrix.

        Row ``c`` is candidate ``c``'s per-instance values in instance
        order, the job last.
        """
        matrix = np.empty(
            (self.num_candidates, self.num_base + 1), dtype=float
        )
        if self.num_candidates:
            matrix[:, : self.num_base] = values[self.base_rows]
            matrix[self.candidates, self.columns] = values[self.rows]
        return matrix


class PredictionKernel:
    """Immutable vectorized view over one model version's profiles.

    Built by :meth:`InterferenceModel.prediction_kernel
    <repro.core.model.InterferenceModel.prediction_kernel>`; consumers
    should obtain it there so snapshot invalidation (on
    ``add_profile``) is handled for them.
    """

    def __init__(
        self,
        profiles: Mapping[str, "InterferenceProfile"],  # noqa: F821
        *,
        version: int = 0,
    ) -> None:
        self.version = version
        self._workload_names = sorted(profiles)
        self._tables: Dict[str, _WorkloadTable] = {}
        self._scores: Dict[str, float] = {}
        for name in self._workload_names:
            profile = profiles[name]
            self._tables[name] = _WorkloadTable(
                workload=name,
                matrix=profile.matrix.copy(),
                max_count=profile.matrix.max_count,
                policy=get_policy(profile.policy_name),
                bubble_score=profile.bubble_score,
            )
            self._scores[name] = profile.bubble_score
        # Distinct co-runner score tuple -> combined pressure, computed
        # by the scalar combine (see module docstring).
        self._combine_cache: Dict[Tuple[float, ...], float] = {}
        # Co-runner name tuple -> combined pressure (pressure_vector).
        self._by_names: Dict[Tuple[str, ...], float] = {}
        # What each workload's unit alone exerts (the combine of its
        # 1-tuple): two-unit-per-node clusters read it per co-runner.
        self._alone: Dict[str, float] = {
            name: self.combined_pressure((score,))
            for name, score in self._scores.items()
        }

    # ------------------------------------------------------------------
    # Pressure-vector extraction
    # ------------------------------------------------------------------
    def combined_pressure(self, scores: Tuple[float, ...]) -> float:
        """Memoized scalar :func:`combine_pressures` (surcharge-free)."""
        value = self._combine_cache.get(scores)
        if value is None:
            value = combine_pressures(scores, collision_surcharge=0.0)
            self._combine_cache[scores] = value
        return value

    def _score_of(self, workload: str) -> float:
        try:
            return self._scores[workload]
        except KeyError:
            raise ModelError(
                f"no interference profile for {workload!r}; "
                f"profiled: {', '.join(self._workload_names)}"
            ) from None

    def pressure_vector(
        self,
        workload_nodes: Sequence[int],
        co_runners_by_node: Mapping[int, Sequence[str]],
    ) -> List[float]:
        """Mirror of :meth:`InterferenceModel.pressure_vector`.

        Memoized per co-runner name tuple on top of the score memo.
        """
        vector: List[float] = []
        for node in workload_nodes:
            names = tuple(co_runners_by_node.get(node, ()))
            value = self._by_names.get(names)
            if value is None:
                value = self._by_names[names] = self.combined_pressure(
                    tuple([self._score_of(name) for name in names])
                )
            vector.append(value)
        return vector

    def _excluding_views(
        self, residents: Mapping[int, Sequence[Tuple[object, str]]]
    ) -> Dict[int, Dict[object, float]]:
        """Per node, the combined co-runner pressure each resident sees.

        ``residents`` maps a node to its ``(key, workload)`` units in
        summation order; each resident's view combines the scores of
        every *other* unit there, in that order, so the memoized combine
        replays the scalar summation order.  Raises ``KeyError`` on an
        unknown co-runner workload.
        """
        scores = self._scores
        alone = self._alone
        empty = self.combined_pressure(())
        # Nodes host at most ``unit_slots_per_node`` units, so the one-
        # and two-unit cases below cover real clusters; the generic
        # branch keeps larger nodes exact (order-preserving tuples).
        excluding: Dict[int, Dict[object, float]] = {}
        for node, units in residents.items():
            if len(units) == 1:
                excluding[node] = {units[0][0]: empty}
                continue
            if len(units) == 2:
                (key_a, work_a), (key_b, work_b) = units
                excluding[node] = (
                    {key_a: empty} if key_a == key_b
                    else {key_a: alone[work_b], key_b: alone[work_a]}
                )
                continue
            scored = [(key, scores[workload]) for key, workload in units]
            views: Dict[object, float] = {}
            for key, _ in scored:
                if key not in views:
                    views[key] = self.combined_pressure(
                        tuple([s for other, s in scored if other != key])
                    )
            excluding[node] = views
        return excluding

    def _raise_unknown(
        self,
        entries: Sequence[Tuple[object, str, Sequence[int]]],
        residents: Mapping[int, Sequence[Tuple[object, str]]],
    ) -> None:
        """Replay the scalar walk to raise its unknown-workload error.

        ``entries`` are ``(key, workload, spanned_nodes)`` in instance
        order: the scalar path looks up each instance's co-runners node
        by node and then the instance's own workload, so the error
        names the workload it would have hit first.
        """
        for key, workload, nodes in entries:
            for node in nodes:
                for other_key, other in residents.get(node, ()):
                    if other_key != key:
                        self._score_of(other)
            self._score_of(workload)

    def placement_vectors(
        self, placement: "Placement"  # noqa: F821
    ) -> List[Tuple[str, str, List[float]]]:
        """``(instance_key, workload, pressure_vector)`` per instance.

        Equivalent to calling ``placement.co_runner_workloads`` plus
        :meth:`pressure_vector` per instance, but built from a single
        pass over the placement's per-node residents — the scalar
        route is quadratic in the instance count.  The co-runner order
        within a node is the placement's assignment order, exactly as
        ``co_runner_workloads`` reports it, so the memoized combine
        replays the scalar summation order.
        """
        residents = placement.node_residents()
        try:
            excluding = self._excluding_views(residents)
        except KeyError:
            self._raise_unknown(
                [
                    (
                        spec.instance_key,
                        spec.workload,
                        placement.spanned_nodes(spec.instance_key),
                    )
                    for spec in placement.instances
                ],
                residents,
            )
            raise  # pragma: no cover - unknowns always reachable above
        # Visiting nodes in ascending order appends each instance's
        # entries in ``spanned_nodes`` order.
        vectors: Dict[str, List[float]] = {
            spec.instance_key: [] for spec in placement.instances
        }
        for node in sorted(excluding):
            for key, pressure in excluding[node].items():
                vectors[key].append(pressure)
        return [
            (spec.instance_key, spec.workload, vectors[spec.instance_key])
            for spec in placement.instances
        ]

    def admission_wave(
        self,
        base: Optional["Placement"],  # noqa: F821
        job: "InstanceSpec",  # noqa: F821
        node_sets: Sequence[Sequence[int]],
    ) -> AdmissionWave:
        """Pressure vectors of ``base`` extended by ``job`` on each node set.

        The factored form of calling :meth:`placement_vectors` on every
        candidate placement: an arriving job only changes the vectors
        of the tenants sharing one of its nodes, so each base tenant's
        vector is built once, and each candidate adds rows only for the
        job and for the tenants with a unit on the candidate's nodes.
        Every node's residents are taken in ``base.instances`` order
        with the job last — the order the service's
        ``placement_with_job`` rebuilds the assignment in — so every
        cell equals the matching candidate placement's vector bit for
        bit.  Equal ``(workload, vector)`` rows are stored once.  Node
        sets must be valid extensions of ``base``.
        """
        tenants = base.instances if base is not None else ()
        num_base = len(tenants)
        # Column ``num_base`` is the job's; it doubles as a resident key.
        workload_of = [spec.workload for spec in tenants] + [job.workload]
        spanned = [base.spanned_nodes(spec.instance_key) for spec in tenants]
        residents: Dict[int, List[Tuple[object, str]]] = {}
        for column, spec in enumerate(tenants):
            for node in base.nodes_of(spec.instance_key):
                residents.setdefault(node, []).append((column, spec.workload))
        spans = [sorted(set(nodes)) for nodes in node_sets]
        if not spans:
            nothing = np.empty(0, dtype=np.intp)
            return AdmissionWave(
                [], [], nothing, nothing, nothing, nothing, num_base, 0
            )
        joined = {
            node: residents.get(node, []) + [(num_base, job.workload)]
            for node in sorted(set().union(*spans))
        }
        if not all(workload in self._scores for workload in workload_of):
            first = spans[0]
            self._raise_unknown(
                list(zip(range(num_base + 1), workload_of, spanned + [first])),
                {**residents, **{node: joined[node] for node in first}},
            )
        views = self._excluding_views(residents)
        with_job = self._excluding_views(joined)
        workloads: List[str] = []
        vectors: List[List[float]] = []
        row_of: Dict[Tuple[str, Tuple[float, ...]], int] = {}

        def row(column: int, vector: List[float]) -> int:
            key = (workload_of[column], tuple(vector))
            index = row_of.get(key)
            if index is None:
                index = row_of[key] = len(vectors)
                workloads.append(key[0])
                vectors.append(vector)
            return index

        base_vectors = [
            [views[node][column] for node in nodes]
            for column, nodes in enumerate(spanned)
        ]
        base_rows = [
            row(column, vector) for column, vector in enumerate(base_vectors)
        ]
        position = [
            {node: i for i, node in enumerate(nodes)} for nodes in spanned
        ]
        candidates: List[int] = []
        columns: List[int] = []
        rows: List[int] = []
        for candidate, span in enumerate(spans):
            changed: Dict[int, List[float]] = {}
            for node in span:
                seen = with_job[node]
                for column, _ in residents.get(node, ()):
                    vector = changed.get(column)
                    if vector is None:
                        vector = changed[column] = list(base_vectors[column])
                    vector[position[column][node]] = seen[column]
            changed[num_base] = [with_job[node][num_base] for node in span]
            for column, vector in changed.items():
                candidates.append(candidate)
                columns.append(column)
                rows.append(row(column, vector))
        return AdmissionWave(
            workloads=workloads,
            vectors=vectors,
            base_rows=np.asarray(base_rows, dtype=np.intp),
            candidates=np.asarray(candidates, dtype=np.intp),
            columns=np.asarray(columns, dtype=np.intp),
            rows=np.asarray(rows, dtype=np.intp),
            num_base=num_base,
            num_candidates=len(spans),
        )

    # ------------------------------------------------------------------
    # Vectorized prediction
    # ------------------------------------------------------------------
    def knows(self, workload: str) -> bool:
        """Whether the snapshot carries a profile for ``workload``."""
        return workload in self._tables

    def predict_vectors(
        self,
        workloads: Sequence[str],
        vectors: Sequence[Sequence[float]],
        *,
        policy_override: Optional[HeterogeneityPolicy] = None,
    ) -> Optional[np.ndarray]:
        """Heterogeneous predictions for parallel workload/vector lists.

        Returns ``None`` when the batch contains an anomaly (unknown
        workload, empty vector, NaN or negative pressure) so the caller
        can replay the scalar path and surface the scalar error.
        ``policy_override`` substitutes one policy for every profile's
        own — the degraded-workload conservative ALL-max path.
        """
        size = len(workloads)
        out = np.empty(size, dtype=float)
        if size == 0:
            return out
        lengths = np.fromiter(
            (len(vector) for vector in vectors), dtype=np.intp, count=size
        )
        if (lengths == 0).any():
            return None
        width = int(lengths.max())
        try:
            if int(lengths.min()) == width:
                # Uniform span widths (the common placement case):
                # build the matrix in one C-level pass, no padding.
                padded = np.asarray(vectors, dtype=float)
                if padded.shape != (size, width):
                    return None
            else:
                padded = np.zeros((size, width), dtype=float)
                for i, vector in enumerate(vectors):
                    padded[i, : lengths[i]] = vector
        except (TypeError, ValueError):
            return None
        if np.isnan(padded).any() or (padded < 0.0).any():
            return None
        groups: Dict[str, List[int]] = {}
        for i, workload in enumerate(workloads):
            if workload not in self._tables:
                return None
            groups.setdefault(workload, []).append(i)
        for workload, indices in groups.items():
            table = self._tables[workload]
            policy = policy_override or table.policy
            if len(indices) < SMALL_GROUP:
                matrix = table.matrix
                for i in indices:
                    # The caller's row, not the array copy: same floats
                    # (the checks above ran on the copy), cheaper to walk.
                    vector = vectors[i]
                    setting = policy.convert(vector)
                    scale = table.max_count / len(vector)
                    out[i] = matrix.lookup(
                        HomogeneousSetting(
                            setting.pressure, setting.count * scale
                        )
                    )
                continue
            rows = np.asarray(indices, dtype=np.intp)
            group_lengths = lengths[rows]
            pressure, count = policy.convert_batch(
                padded[rows], group_lengths
            )
            # Same operation order as the scalar path: the profiled
            # span rescale divides max_count by the true vector length,
            # then scales the converted count.
            scale = table.max_count / group_lengths
            out[rows] = table.matrix.lookup_batch(pressure, count * scale)
        return out

    def lookup_settings(
        self, workload: str, pressures: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Vectorized homogeneous lookups for one workload."""
        return self._tables[workload].matrix.lookup_batch(pressures, counts)
