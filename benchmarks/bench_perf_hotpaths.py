"""Before/after microbenchmarks for the hot-path optimizations.

Covers the PR's fast paths, each against the slow path it replaces:

* **Incremental annealing energy** — delta evaluation re-predicts only
  the instances on the two swapped nodes, versus re-predicting the
  whole mix every proposal.  Same seeds, bit-identical results.
* **Batch prediction** — a full-placement evaluation and an admission
  candidate wave scored through the vectorized
  :class:`~repro.core.kernel.PredictionKernel` path, versus the scalar
  per-instance reference.  Bit-identical by construction (see the
  "Batch prediction" section of ``docs/performance.md``).
* **Scalar lookup** — ``PropagationMatrix.lookup`` on its Python-float
  table, versus the per-row ``np.interp`` formulation it replaced (an
  inline copy below).  Bit-identical; the ratio catches NumPy creeping
  back into the scalar route without a wall-time baseline.
* **Proposal draws** — annealing's proposal draws (one
  ``DrawStream.proposal`` call per try) and acceptance draws served by
  a :class:`~repro._util.DrawStream`, versus the NumPy
  ``choice``/``integers``/``random`` calls it replays.  Same values
  and same final generator state.
* **Flat-network gate** — the per-resource prediction API's only cost
  on models without network profiles: one ``has_network`` consultation
  per batch call.  The guard bounds the gate at 5% of an end-to-end
  placement prediction, so flat models stay within 1.05x of the
  scalar-era path they still execute.

Numbers land in ``benchmarks/results/perf_hotpaths.txt`` (plus a JSON
twin for tooling).  The tier-1 ``perf_smoke`` regression guard
(``tests/perf/``) checks a scaled-down version of the same paths
against the checked-in baseline.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np

from repro._util import DrawStream
from repro.cluster.cluster import ClusterSpec
from repro.core.curves import HomogeneousSetting, PropagationMatrix
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.placement.annealing import AnnealingSchedule, SimulatedAnnealingPlacer
from repro.placement.assignment import InstanceSpec, Placement
from repro.placement.objectives import (
    WeightedTimeEnergy,
    predict_placement,
    predict_placement_scalar,
    weighted_total_time,
)
from repro.service.admission import AdmissionController
from repro.service.jobs import Job

#: Section 5-like shape, scaled up so the per-proposal win is visible:
#: 16 applications x 4 units on 32 two-slot nodes.  A full evaluation
#: re-predicts 16 instances; a swap touches 2 nodes, so delta
#: evaluation re-predicts at most 4.
NUM_NODES = 32
NUM_INSTANCES = 16
UNITS_PER_INSTANCE = 4
SEARCH_SCHEDULE = AnnealingSchedule(iterations=2000, restarts=1)


def _make_matrix(max_slowdown: float) -> PropagationMatrix:
    amplitude = max_slowdown - 1.0
    counts = list(range(UNITS_PER_INSTANCE + 1))
    pressures = [2.0, 4.0, 6.0, 8.0]
    values = np.array(
        [
            [
                1.0 + amplitude * (p / 8.0) * (c / UNITS_PER_INSTANCE) ** 0.5
                for c in counts
            ]
            for p in pressures
        ]
    )
    return PropagationMatrix(pressures, counts, values)


def make_search_model() -> InterferenceModel:
    kinds = [
        ("loud", 1.3, 8.0, "N+1 MAX"),
        ("quiet", 1.05, 0.5, "INTERPOLATE"),
        ("sensitive", 2.0, 2.0, "N+1 MAX"),
    ]
    profiles = {
        name: InterferenceProfile(
            workload=name,
            matrix=_make_matrix(slowdown),
            policy_name=policy,
            bubble_score=score,
        )
        for name, slowdown, score, policy in kinds
    }
    return InterferenceModel(profiles)


def search_instances():
    kinds = ("loud", "quiet", "sensitive")
    return [
        InstanceSpec(f"{kinds[i % 3]}#{i}", kinds[i % 3], UNITS_PER_INSTANCE)
        for i in range(NUM_INSTANCES)
    ]


def full_energy(model):
    def energy(placement: Placement) -> float:
        return weighted_total_time(predict_placement(model, placement), placement)

    return energy


def assignment_of(placement: Placement):
    return {
        spec.instance_key: tuple(placement.nodes_of(spec.instance_key))
        for spec in placement.instances
    }


#: Consolidated-cluster shape for the batch-prediction benchmarks:
#: the vectorized path's advantage grows with the instance count (the
#: scalar route is quadratic in it), so these use a cluster an order
#: of magnitude beyond the annealing shape above.
BATCH_NUM_INSTANCES = 192
BATCH_NUM_NODES = 432

#: Admission-wave shape: 16 resident tenants leaving ten half-free
#: nodes, so one four-unit job enumerates C(10, 4) = 210 candidate
#: placements of 17 instances each.
WAVE_NUM_NODES = 37
WAVE_NUM_TENANTS = 16


def consolidated_placement(num_instances, num_nodes, seed=7):
    """A dense random spread of 4-unit instances over 2-slot nodes."""
    import random

    rng = random.Random(seed)
    kinds = ("loud", "quiet", "sensitive")
    spec = ClusterSpec(num_nodes=num_nodes)
    instances, assignment = [], {}
    free = {node: 2 for node in range(num_nodes)}
    for i in range(num_instances):
        key = f"{kinds[i % 3]}#{i}"
        instances.append(InstanceSpec(key, kinds[i % 3], UNITS_PER_INSTANCE))
        open_nodes = [node for node, slots in free.items() if slots > 0]
        nodes = rng.sample(open_nodes, UNITS_PER_INSTANCE)
        for node in nodes:
            free[node] -= 1
        assignment[key] = tuple(nodes)
    return Placement(spec, instances, assignment, unit_slots_per_node=2)


class _ScalarOnly:
    """Model proxy hiding the batch interface (scalar-reference timing)."""

    _HIDDEN = frozenset(
        {
            "predict_placement_batch",
            "predict_placements_batch",
            "prediction_kernel",
        }
    )

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        if name in _ScalarOnly._HIDDEN:
            raise AttributeError(name)
        return getattr(self._model, name)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _best_pair(slow_fn, fast_fn, reps: int, rounds: int = 7):
    """Best-of-``rounds`` seconds per call for two competing paths.

    The rounds interleave the two measurements so a transient load
    spike cannot land on only one side and skew the ratio; each side
    keeps its own minimum across rounds.
    """
    slow_best = fast_best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(reps):
            slow_fn()
        slow_best = min(slow_best, (time.perf_counter() - start) / reps)
        start = time.perf_counter()
        for _ in range(reps):
            fast_fn()
        fast_best = min(fast_best, (time.perf_counter() - start) / reps)
    return slow_best, fast_best


RESULTS: dict = {}


def _record_json(artifact_dir):
    """Merge this run's entries into the JSON results file.

    A partial run (``-k``) replaces only the entries it measured; the
    others keep their last recorded numbers.
    """
    path = artifact_dir / "perf_hotpaths.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    recorded.update(RESULTS)
    path.write_text(json.dumps(recorded, indent=2) + "\n")


def test_incremental_vs_full_search(record_artifact, artifact_dir):
    model = make_search_model()
    spec = ClusterSpec(num_nodes=NUM_NODES)
    initial = Placement.random(spec, search_instances(), seed=11)

    slow_placer = SimulatedAnnealingPlacer(
        full_energy(model), schedule=SEARCH_SCHEDULE, seed=3
    )
    slow, slow_s = _timed(lambda: slow_placer.search_from(initial))
    fast_placer = SimulatedAnnealingPlacer(
        WeightedTimeEnergy(model), schedule=SEARCH_SCHEDULE, seed=3
    )
    fast, fast_s = _timed(lambda: fast_placer.search_from(initial))

    assert fast.energy == slow.energy
    assert assignment_of(fast.placement) == assignment_of(slow.placement)
    assert fast.energy_trajectory == slow.energy_trajectory

    speedup = slow_s / fast_s
    RESULTS["search"] = {
        "full_s": slow_s, "incremental_s": fast_s, "speedup": speedup,
    }
    record_artifact(
        "perf_hotpaths_search",
        f"Annealing search ({SEARCH_SCHEDULE.iterations} proposals, "
        f"{NUM_INSTANCES}x{UNITS_PER_INSTANCE} units on {NUM_NODES} nodes)\n"
        f"  full evaluation:        {slow_s:8.3f} s\n"
        f"  incremental evaluation: {fast_s:8.3f} s\n"
        f"  speedup:                {speedup:8.2f}x (bit-identical result)",
    )
    _record_json(artifact_dir)
    # The full-evaluation denominator rides the batch kernel too
    # (predict_placement dispatches to predict_placement_batch), so the
    # incremental win over it is narrower than against the historical
    # scalar full path.  Annealing one mutable search state per pass
    # measured 9.5-9.6x; a new placement and prediction table per
    # proposal (the memo already keyed on co-runner names) measured
    # 6.6-6.8x and fails this floor, and keying the memo on node ids
    # (2.5-2.6x) fails it further.  The incremental path's absolute
    # time is separately guarded by the perf_smoke baseline.
    assert speedup >= 7.5


def test_full_placement_batch(record_artifact, artifact_dir):
    model = make_search_model()
    placement = consolidated_placement(BATCH_NUM_INSTANCES, BATCH_NUM_NODES)

    scalar = predict_placement_scalar(model, placement)
    batch = predict_placement(model, placement)
    assert batch == scalar  # bit-identical, not approximately equal

    scalar_s, batch_s = _best_pair(
        lambda: predict_placement_scalar(model, placement),
        lambda: predict_placement(model, placement),
        reps=20,
    )

    speedup = scalar_s / batch_s
    RESULTS["full_placement_batch"] = {
        "scalar_s": scalar_s, "batch_s": batch_s, "speedup": speedup,
        "instances": BATCH_NUM_INSTANCES, "nodes": BATCH_NUM_NODES,
    }
    record_artifact(
        "perf_hotpaths_full_placement_batch",
        f"Full-placement prediction ({BATCH_NUM_INSTANCES}x"
        f"{UNITS_PER_INSTANCE} units on {BATCH_NUM_NODES} nodes)\n"
        f"  scalar per-instance: {scalar_s * 1e3:8.3f} ms\n"
        f"  vectorized batch:    {batch_s * 1e3:8.3f} ms\n"
        f"  speedup:             {speedup:8.2f}x (bit-identical table)",
    )
    _record_json(artifact_dir)
    assert speedup >= 10.0


def _numpy_lookup(matrix: PropagationMatrix, setting: HomogeneousSetting):
    """The per-row ``np.interp`` lookup the float table replaced."""
    if np.isnan(matrix.values).any():
        raise AssertionError("incomplete matrix")
    if setting.count <= 0 or setting.pressure <= 0:
        return 1.0
    count = min(setting.count, matrix.max_count)
    pressure = min(setting.pressure, float(matrix.pressures[-1]))
    column = np.array(
        [np.interp(count, matrix.counts, row) for row in matrix.values]
    )
    levels = matrix.pressures
    if pressure <= levels[0]:
        return float(1.0 + (column[0] - 1.0) * (pressure / levels[0]))
    return float(np.interp(pressure, levels, column))


def lookup_matrix() -> PropagationMatrix:
    """A profiled-shape matrix: 8 pressure levels by counts 0..8."""
    levels = [float(level) for level in range(1, 9)]
    counts = [float(count) for count in range(9)]
    values = np.array(
        [[1.0 + 0.12 * level * count ** 0.7 for count in counts]
         for level in levels]
    )
    return PropagationMatrix(levels, counts, values)


#: Knots, fractional points, pressures below the first level and
#: settings past both clamps.
LOOKUP_SETTINGS = [
    HomogeneousSetting(pressure, count)
    for pressure in (0.4, 1.0, 2.5, 4.0, 5.75, 8.0, 9.5)
    for count in (0.5, 1.0, 2.0, 3.3, 6.5, 8.0, 12.0)
]


def test_scalar_lookup(record_artifact, artifact_dir):
    matrix = lookup_matrix()
    for setting in LOOKUP_SETTINGS:
        result = matrix.lookup(setting)
        assert type(result) is float
        assert result.hex() == _numpy_lookup(matrix, setting).hex()

    numpy_s, table_s = _best_pair(
        lambda: [_numpy_lookup(matrix, s) for s in LOOKUP_SETTINGS],
        lambda: [matrix.lookup(s) for s in LOOKUP_SETTINGS],
        reps=20,
    )
    speedup = numpy_s / table_s
    per_call = len(LOOKUP_SETTINGS)
    RESULTS["scalar_lookup"] = {
        "numpy_s": numpy_s, "table_s": table_s, "speedup": speedup,
        "settings": per_call,
    }
    record_artifact(
        "perf_hotpaths_scalar_lookup",
        f"Scalar lookup ({per_call} settings on an 8x9 matrix)\n"
        f"  per-row np.interp: {numpy_s / per_call * 1e6:8.3f} us/lookup\n"
        f"  float table:       {table_s / per_call * 1e6:8.3f} us/lookup\n"
        f"  speedup:           {speedup:8.2f}x (bit-identical results)",
    )
    _record_json(artifact_dir)
    assert speedup >= 4.0


#: Proposal-shaped draws ``(units, accept)``: a pair over 4-48
#: instances of 1-4 units each, a unit draw on each side, and an
#: acceptance test about 60% of the time (what reaches
#: ``exp(-delta / T)``).
_DRAW_SHAPES = random.Random(16)
PROPOSALS = [
    (
        [_DRAW_SHAPES.randrange(1, 5)
         for _ in range(_DRAW_SHAPES.randrange(4, 49))],
        _DRAW_SHAPES.random() < 0.6,
    )
    for _ in range(2000)
]


def _numpy_proposals():
    rng = np.random.default_rng(2016)
    drawn = []
    for units, accept in PROPOSALS:
        a, b = rng.choice(len(units), size=2, replace=False)
        drawn.append((
            int(a), int(b), int(rng.integers(units[a])),
            int(rng.integers(units[b])), rng.random() if accept else None,
        ))
    return drawn, rng.bit_generator.state


def _stream_proposals():
    rng = np.random.default_rng(2016)
    drawn = []
    with DrawStream(rng) as draws:
        for units, accept in PROPOSALS:
            drawn.append((
                *draws.proposal(units), draws.random() if accept else None,
            ))
    return drawn, rng.bit_generator.state


def test_proposal_draws(record_artifact, artifact_dir):
    assert _stream_proposals() == _numpy_proposals()

    numpy_s, stream_s = _best_pair(
        _numpy_proposals, _stream_proposals, reps=3
    )
    speedup = numpy_s / stream_s
    per_call = len(PROPOSALS)
    RESULTS["proposal_draws"] = {
        "numpy_s": numpy_s, "stream_s": stream_s, "speedup": speedup,
        "proposals": per_call,
    }
    record_artifact(
        "perf_hotpaths_proposal_draws",
        f"Proposal draws ({per_call} proposals over 4-48 instances)\n"
        f"  NumPy calls: {numpy_s / per_call * 1e6:8.3f} us/proposal\n"
        f"  DrawStream:  {stream_s / per_call * 1e6:8.3f} us/proposal\n"
        f"  speedup:     {speedup:8.2f}x (identical draws and state)",
    )
    _record_json(artifact_dir)
    assert speedup >= 3.0


def test_flat_network_gate_overhead(record_artifact, artifact_dir):
    """Flat models must stay within 1.05x of the scalar-era path.

    A model built without network profiles executes exactly the
    scalar-era prediction code plus the NETWORK-domain gate: one
    ``has_network`` consultation (and a dead branch) per batch call.
    Rather than race wall clocks across machines, the guard measures
    the gate and the full prediction in the same process and bounds
    the former at 5% of the latter — the overhead factor over the
    scalar baseline is ``1 + gate/predict`` by construction.
    """
    model = make_search_model()
    placement = consolidated_placement(BATCH_NUM_INSTANCES, BATCH_NUM_NODES)
    assert not model.has_network

    def gate():
        # The flat path's entire addition: consult the gate, skip the
        # network branch.
        if model.has_network:  # pragma: no cover - flat by construction
            raise AssertionError("flat model grew a network domain")

    predict_s, gate_s = _best_pair(
        lambda: predict_placement(model, placement),
        gate,
        reps=20,
    )

    overhead = 1.0 + gate_s / predict_s
    RESULTS["flat_network_gate"] = {
        "predict_s": predict_s, "gate_s": gate_s,
        "overhead_factor": overhead,
    }
    record_artifact(
        "perf_hotpaths_flat_network_gate",
        f"Flat-network gate ({BATCH_NUM_INSTANCES}x{UNITS_PER_INSTANCE} "
        f"units on {BATCH_NUM_NODES} nodes)\n"
        f"  full flat prediction: {predict_s * 1e6:8.3f} us\n"
        f"  network-domain gate:  {gate_s * 1e6:8.3f} us\n"
        f"  overhead factor:      {overhead:8.4f}x (bound 1.05x)",
    )
    _record_json(artifact_dir)
    assert overhead <= 1.05


def wave_placement_and_tenants():
    """Sixteen 4-unit tenants leaving ten nodes with one free slot."""
    kinds = ("loud", "quiet", "sensitive")
    spec = ClusterSpec(num_nodes=WAVE_NUM_NODES)
    # Slot list: nodes 0-9 offer one unit, the rest two; tenant i takes
    # every 16th slot, which keeps its units on distinct nodes.
    slots = list(range(10)) + [
        node for node in range(10, WAVE_NUM_NODES) for _ in range(2)
    ]
    tenants, instances, assignment = [], [], {}
    for i in range(WAVE_NUM_TENANTS):
        job = Job(
            job_id=f"tenant-{i}",
            workload=kinds[i % 3],
            num_units=UNITS_PER_INSTANCE,
            qos_target=2.5 if i % 3 == 0 else None,
        )
        tenants.append(job)
        instances.append(job.instance_spec())
        assignment[job.job_id] = tuple(slots[i::WAVE_NUM_TENANTS])
    placement = Placement(spec, instances, assignment, unit_slots_per_node=2)
    return spec, placement, tenants


def test_admission_wave_batch(record_artifact, artifact_dir):
    model = make_search_model()
    spec, placement, tenants = wave_placement_and_tenants()
    job = Job(
        job_id="arriving", workload="sensitive",
        num_units=UNITS_PER_INSTANCE, qos_target=2.5,
    )

    batch_controller = AdmissionController(model, spec)
    scalar_controller = AdmissionController(_ScalarOnly(model), spec)
    batch_decision = batch_controller.try_admit(placement, tenants, job)
    scalar_decision = scalar_controller.try_admit(placement, tenants, job)

    assert batch_decision.admitted == scalar_decision.admitted
    assert batch_decision.reason == scalar_decision.reason
    assert (
        batch_decision.candidates_evaluated
        == scalar_decision.candidates_evaluated
    )
    assert batch_decision.predictions == scalar_decision.predictions
    if batch_decision.placement is not None:
        assert assignment_of(batch_decision.placement) == assignment_of(
            scalar_decision.placement
        )

    scalar_s, batch_s = _best_pair(
        lambda: scalar_controller.try_admit(placement, tenants, job),
        lambda: batch_controller.try_admit(placement, tenants, job),
        reps=2, rounds=3,
    )

    speedup = scalar_s / batch_s
    RESULTS["admission_wave_batch"] = {
        "scalar_s": scalar_s, "batch_s": batch_s, "speedup": speedup,
        "candidates": batch_decision.candidates_evaluated,
    }
    record_artifact(
        "perf_hotpaths_admission_wave_batch",
        f"Admission wave ({batch_decision.candidates_evaluated} candidate "
        f"placements of {WAVE_NUM_TENANTS + 1} instances)\n"
        f"  scalar per-candidate: {scalar_s * 1e3:8.3f} ms\n"
        f"  vectorized wave:      {batch_s * 1e3:8.3f} ms\n"
        f"  speedup:              {speedup:8.2f}x (identical decision)",
    )
    _record_json(artifact_dir)
    # The scalar side builds and validates every candidate Placement;
    # the wave builds only the winner and re-predicts only the tenants
    # each candidate touches.
    assert speedup >= 2.0
