"""Golden identity test for the annealing search.

Every case is a small search generated deterministically from its
index: 2-48 instances of 1-4 units on 4-64 nodes, searched by a plain
callable energy, by :class:`WeightedTimeEnergy` (the incremental path)
or by :meth:`QoSAwarePlacer.place` with one constraint (both
constrained energies), under hill climbing (``T = 0``) and annealed
schedules, through ``search_from(rng=g)`` or ``search()`` with
restarts.  Every case draws from one generator ``g``; half of them
start with ``g`` holding a buffered 32-bit half.

``golden/annealing_searches.json`` pins, per case, the best placement,
its energy as ``float.hex``, ``evaluations``, ``accepted_moves``, a
SHA-256 over the energy trajectory, and ``g``'s bit-generator state
plus its next ``integers(2**31)`` after the search, which pins how the
search hands its stream back.

Regenerate only after an intentional change to the search's draws::

    PYTHONPATH=src python -m tests.placement.test_annealing_golden
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, NamedTuple

import numpy as np
import pytest

from repro.cluster.cluster import ClusterSpec
from repro.core.curves import PropagationMatrix
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.placement.annealing import (
    AnnealingSchedule,
    SearchResult,
    SimulatedAnnealingPlacer,
)
from repro.placement.assignment import InstanceSpec, Placement
from repro.placement.objectives import QoSConstraint, WeightedTimeEnergy
from repro.placement.qos import QoSAwarePlacer

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "annealing_searches.json"

NUM_CASES = 48

KINDS = ("callable", "weighted", "qos")

#: (name, max slowdown, bubble score, policy) of the model's workloads.
WORKLOADS = (
    ("loud", 1.3, 8.0, "N+1 MAX"),
    ("quiet", 1.05, 0.5, "INTERPOLATE"),
    ("sensitive", 2.0, 2.0, "N+1 MAX"),
    ("mid", 1.5, 4.0, "INTERPOLATE"),
)


def _matrix(max_slowdown: float) -> PropagationMatrix:
    amplitude = max_slowdown - 1.0
    shape = ((0.0, 0.4, 0.6, 0.7, 0.75), (0.0, 0.8, 0.9, 0.95, 1.0))
    values = np.array([[1.0 + s * amplitude for s in row] for row in shape])
    return PropagationMatrix([4.0, 8.0], [0.0, 1.0, 2.0, 3.0, 4.0], values)


MODEL = InterferenceModel({
    name: InterferenceProfile(
        workload=name, matrix=_matrix(slowdown),
        policy_name=policy, bubble_score=score,
    )
    for name, slowdown, score, policy in WORKLOADS
})


class Case(NamedTuple):
    kind: str
    restarts: bool
    buffered: bool
    schedule: AnnealingSchedule
    spec: ClusterSpec
    instances: List[InstanceSpec]
    seed: int


def build_case(index: int) -> Case:
    """The search of case ``index``; the grid axes come from the index."""
    rng = random.Random(index)
    kind = KINDS[index % 3]
    restarts = (index // 3) % 2 == 1
    buffered = (index // 6) % 2 == 1
    temperature = (0.0, 0.05, 0.5)[(index // 12) % 3]
    nodes = rng.choice((4, 6, 8, 16, 32, 64))
    capacity = 2 * nodes
    instances: List[InstanceSpec] = []
    total = 0
    target = rng.randrange(2, 49)
    while len(instances) < target:
        units = min(rng.randrange(1, 5), nodes)
        if total + units > (3 * capacity) // 4:
            break
        name = WORKLOADS[rng.randrange(len(WORKLOADS))][0]
        instances.append(InstanceSpec(f"{name}#{len(instances)}", name, units))
        total += units
    if len(instances) < 2:
        instances = [InstanceSpec("loud#0", "loud", 1), InstanceSpec("mid#1", "mid", 1)]
    schedule = AnnealingSchedule(
        iterations=rng.randrange(20, 260),
        initial_temperature=temperature,
        final_temperature=temperature / 50,
        restarts=rng.randrange(2, 4) if restarts else 1,
    )
    return Case(
        kind, restarts, buffered, schedule, ClusterSpec(num_nodes=nodes),
        instances, 7000 + index,
    )


def _spread_energy(placement: Placement) -> float:
    """A plain callable: squared per-node weight, heavier keys weigh more."""
    load: Dict[int, float] = {}
    for rank, spec in enumerate(placement.instances):
        weight = 1.0 + (rank % 5) * 0.37
        for node in placement.nodes_of(spec.instance_key):
            load[node] = load.get(node, 0.0) + weight
    return sum(value * value for value in load.values()) / len(placement.instances)


def _pin_result(result: SearchResult) -> Dict[str, object]:
    placement = result.placement
    trajectory = " ".join(value.hex() for value in result.energy_trajectory)
    return {
        "placement": {
            spec.instance_key: list(placement.nodes_of(spec.instance_key))
            for spec in placement.instances
        },
        "energy": result.energy.hex(),
        "evaluations": result.evaluations,
        "accepted_moves": result.accepted_moves,
        "trajectory_sha256": hashlib.sha256(trajectory.encode()).hexdigest(),
    }


def run_case(case: Case) -> Dict[str, object]:
    """Run one case's search; return its pinned fields."""
    g = np.random.default_rng(case.seed)
    if case.buffered:
        g.integers(2**31)
        assert g.bit_generator.state["has_uint32"] == 1

    def factory(seed: object) -> Placement:
        return Placement.random(case.spec, case.instances, seed=seed)

    if case.kind == "qos":
        bound = QoSConstraint(case.instances[0].instance_key, 1.25)
        placed = QoSAwarePlacer(
            MODEL, case.spec, [bound], schedule=case.schedule, seed=g
        ).place(case.instances)
        pinned = _pin_result(placed.search)
        pinned["predicted_feasible"] = placed.predicted_feasible
    else:
        energy = (
            _spread_energy if case.kind == "callable"
            else WeightedTimeEnergy(MODEL)
        )
        if case.restarts:
            placer = SimulatedAnnealingPlacer(energy, schedule=case.schedule, seed=g)
            pinned = _pin_result(placer.search(factory))
        else:
            placer = SimulatedAnnealingPlacer(
                energy, schedule=case.schedule, seed=case.seed
            )
            pinned = _pin_result(placer.search_from(factory(case.seed + 1), rng=g))
    state = g.bit_generator.state
    pinned["state"] = [
        str(state["state"]["state"]), str(state["state"]["inc"]),
        state["has_uint32"], state["uinteger"],
    ]
    pinned["next"] = int(g.integers(2**31))
    return pinned


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("index", range(NUM_CASES))
def test_search_matches_golden(index, golden):
    assert run_case(build_case(index)) == golden[str(index)]


def test_cases_cover_the_grid():
    cases = [build_case(index) for index in range(NUM_CASES)]
    assert {case.kind for case in cases} == set(KINDS)
    assert {(case.restarts, case.buffered) for case in cases} == {
        (False, False), (False, True), (True, False), (True, True),
    }
    temperatures = {case.schedule.initial_temperature for case in cases}
    assert 0.0 in temperatures and len(temperatures) == 3
    sizes = [len(case.instances) for case in cases]
    assert min(sizes) == 2 and max(sizes) >= 40
    units = {spec.num_units for case in cases for spec in case.instances}
    assert units == {1, 2, 3, 4}
    nodes = {case.spec.num_nodes for case in cases}
    assert {4, 64} <= nodes


def _write_golden() -> None:
    golden = {str(index): run_case(build_case(index)) for index in range(NUM_CASES)}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in golden.items()
        )
        + "\n}\n"
    )


if __name__ == "__main__":
    _write_golden()
