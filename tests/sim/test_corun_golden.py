"""Golden identity test for the co-run executor.

Every case is a small co-run generated deterministically from its
index: 1-4 active instances on overlapping nodes plus 0-2 passive
bubbles, sustained and non-sustained, under the quiet (exact ties),
private-testbed and EC2 noise profiles, with and without ambient link
noise, and always traced.  Workloads mix the synthetic helpers of
``tests._synthetic``, a hand-built program with uneven static and
undersized dynamic stages, and catalog workloads (the network-bound
``D.PS``/``D.BFS`` included).

``golden/corun_results.json`` pins, per case, every instance's finish
time as ``float.hex`` and one SHA-256 over the mean compute and link
pressures each instance saw at start.  For non-sustained cases the
digest also covers every instance's task and stage counts and the trace
records in order, which pins the executor's tie order.  Sustained cases
pin only what a sustained run reports: finish times and pressures.

Regenerate only after an intentional change to simulated behaviour::

    PYTHONPATH=src python -m tests.sim.test_corun_golden
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

import pytest

from repro.apps.base import Stage, Workload
from repro.apps.bubble import BubbleWorkload
from repro.apps.catalog import get_workload
from repro.apps.mpi import BSPWorkload, CollectiveType
from repro.cluster.contention import ContentionDomain, LinearSensitivity
from repro.cluster.topology import SwitchTopology
from repro.sim.execution import CoRunExecutor, DeployedInstance, InstanceResult
from repro.sim.noise import EC2_NOISE, PRIVATE_TESTBED_NOISE
from repro.sim.trace import ExecutionTrace
from tests._synthetic import (
    QUIET_NOISE,
    batch_workload,
    bsp_workload,
    loose_workload,
    synthetic_spec,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "corun_results.json"

NUM_CASES = 240

NOISES = (
    ("quiet", QUIET_NOISE),
    ("private", PRIVATE_TESTBED_NOISE),
    ("ec2", EC2_NOISE),
)

CATALOG = ("M.milc", "M.Gems", "M.lmps", "H.KM", "S.WC", "C.mcf", "D.PS", "D.BFS")

#: A collective with a real cost, so synthetic BSP stages end in a sync.
SYNC_NETWORK = SwitchTopology(base_latency=0.25, per_node_cost=0.05)


class _MixedWorkload(Workload):
    """Static stage with a remainder, undersized dynamic stage, syncs."""

    def build_program(self, num_slots: int) -> List[Stage]:
        base = self.spec.base_time / 4
        return [
            Stage("uneven", num_slots + 1, base, dynamic=False, sync_cost=0.3),
            Stage("narrow", max(1, num_slots // 2), base, dynamic=True),
            Stage("pool", 3 * num_slots, base / 3, dynamic=True, sync_cost=0.2),
            Stage("tail", num_slots, base, dynamic=False),
        ]


class Case(NamedTuple):
    noise_name: str
    sustained: bool
    seed: int
    num_nodes: Optional[int]
    ambient_link: Optional[Dict[int, float]]
    instances: List[DeployedInstance]


def _synthetic(rng: random.Random, name: str) -> Workload:
    knobs = dict(
        score=rng.choice((0.0, 1.5, 4.0, 8.0)),
        base_time=rng.choice((3.0, 10.0, 40.0)),
        noise_cv=rng.choice((0.0, 0.1)),
        master_factor=rng.choice((1.0, 0.5)),
        slots_per_unit=rng.randrange(1, 4),
    )
    if rng.random() < 0.3:
        knobs["net_score"] = rng.choice((2.0, 6.0))
        knobs["net_sensitivity"] = LinearSensitivity(max_slowdown=1.8)
    kind = rng.randrange(5)
    if kind == 0:
        return bsp_workload(name, iterations=rng.randrange(1, 7), **knobs)
    if kind == 1:
        return loose_workload(
            name, phases=rng.randrange(1, 4),
            chunks_per_slot=rng.randrange(1, 6), **knobs,
        )
    if kind == 2:
        return batch_workload(name, chunks=rng.randrange(1, 5), **knobs)
    if kind == 3:
        return BSPWorkload(
            synthetic_spec(name, **knobs),
            iterations=rng.randrange(1, 6),
            collective=CollectiveType.ALLREDUCE,
            topology=SYNC_NETWORK,
        )
    return _MixedWorkload(synthetic_spec(name, **knobs))


def build_case(index: int) -> Case:
    """The co-run of case ``index``; the grid axes come from the index."""
    rng = random.Random(index)
    noise_name = NOISES[index % 3][0]
    sustained = (index // 3) % 2 == 0
    num_active = 1 + (index // 6) % 4
    with_link = (index // 24) % 2 == 1
    num_bubbles = (index // 48) % 3
    nodes = rng.randrange(2, 7)

    instances: List[DeployedInstance] = []
    for k in range(num_active):
        if rng.random() < 0.4:
            workload = get_workload(rng.choice(CATALOG))
        else:
            workload = _synthetic(rng, f"s{k}")
        units = rng.randrange(1, 4)
        instances.append(DeployedInstance(
            f"a{k}", workload,
            {unit: rng.randrange(nodes) for unit in range(units)},
        ))
    for k in range(num_bubbles):
        domain = rng.choice((ContentionDomain.COMPUTE, ContentionDomain.NETWORK))
        bubble = BubbleWorkload(rng.choice((1.0, 4.0, 8.0)), domain=domain)
        instances.append(DeployedInstance(
            f"b{k}", bubble,
            {unit: rng.randrange(nodes) for unit in range(rng.randrange(1, 3))},
        ))
    ambient_link = None
    if with_link:
        ambient_link = {
            node: rng.choice((0.0, 1.5, 5.0)) for node in range(nodes)
        }
    num_nodes = rng.choice((None, nodes, nodes + 2))
    return Case(
        noise_name, sustained, 1000 + index, num_nodes, ambient_link, instances
    )


def run_case(case: Case) -> Dict[str, object]:
    """Execute one case; return its pinned fields."""
    trace = ExecutionTrace()
    results = CoRunExecutor(
        case.instances,
        seed=case.seed,
        noise=dict(NOISES)[case.noise_name],
        num_nodes=case.num_nodes,
        trace=trace,
        ambient_link=case.ambient_link,
        sustained=case.sustained,
    ).run()
    keys = [inst.instance_key for inst in case.instances]
    return {
        "finish": {key: results[key].finish_time.hex() for key in keys},
        "sha256": _digest(keys, results, trace, case.sustained),
    }


def _digest(
    keys: List[str],
    results: Dict[str, InstanceResult],
    trace: ExecutionTrace,
    sustained: bool,
) -> str:
    lines = []
    for key in keys:
        result = results[key]
        lines.append(
            f"{key} {result.mean_pressure_seen.hex()} "
            f"{result.mean_link_pressure_seen.hex()}"
        )
        if not sustained:
            lines.append(f"{result.tasks_executed} {result.stages_completed}")
    if not sustained:
        lines.extend(
            f"{r.instance_key} {r.stage_name} {r.completed_at.hex()}"
            for r in trace.records
        )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("index", range(NUM_CASES))
def test_corun_matches_golden(index, golden):
    assert run_case(build_case(index)) == golden[str(index)]


def test_cases_cover_the_grid():
    cases = [build_case(index) for index in range(NUM_CASES)]
    assert {case.noise_name for case in cases} == {"quiet", "private", "ec2"}
    assert {case.sustained for case in cases} == {True, False}
    assert any(case.ambient_link for case in cases)
    active = [
        [i for i in case.instances if not i.workload.is_passive] for case in cases
    ]
    assert {len(group) for group in active} == {1, 2, 3, 4}
    assert any(
        len(group) >= 2 and not case.sustained
        for group, case in zip(active, cases)
    )
    assert any(len(group) < len(case.instances) for group, case in zip(active, cases))
    names = {i.workload.name for case in cases for i in case.instances}
    assert {"D.PS", "D.BFS"} <= names


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
