"""Golden contract for the measurement oracle, :class:`ClusterRunner`.

Every measurement kind runs once in each of four environments: clean,
fault injected, ambient link noise, and both.  The kinds are:

* solo baselines;
* homogeneous and heterogeneous settings in both contention domains,
  normalized and absolute, including the zero-pressure shortcuts;
* pairwise co-runs and arbitrary deployments;
* profiling-oracle probes in both domains;
* mixed sequences of these calls: one on the main runner, one on a
  second runner of the same environment, and one recorded into a trace
  of its own.

``golden/runner_measurements.json`` pins, per environment:

* every value as ``float.hex``, or the error when a reading exhausts
  its retry budget;
* ``measurement_count``, ``solo_measurement_count`` and the sorted
  ``faulted_workloads`` of both runners;
* the SHA-256 of the deterministic JSONL trace (``obs.sinks.to_jsonl``)
  of the main and second runners' calls, and of the separately
  recorded sequence.

No call in a sequence exhausts its retry budget.

Regenerate only after an intentional change to measurement behaviour::

    PYTHONPATH=src python -m tests.sim.test_runner_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from repro.cluster.cluster import ClusterSpec
from repro.cluster.contention import ContentionDomain
from repro.core.profiling.plan import MeasurementOracle
from repro.errors import MeasurementFault
from repro.faults import FaultConfig, FaultPlan, RetryPolicy
from repro.obs import recording
from repro.obs.sinks import to_jsonl
from repro.sim.runner import ClusterRunner

GOLDEN_PATH = (
    Path(__file__).resolve().parent / "golden" / "runner_measurements.json"
)

#: Cache-bound, allreduce-bound and a third catalog workload.
COMPUTE_APP = "M.lmps"
NETWORK_APP = "D.PS"
OTHER_APP = "H.KM"

#: Crashes often enough that, with two attempts per reading, some
#: direct readings exhaust their budget.  The seed keeps every call of
#: a sequence inside its budget.
CHAOS = FaultPlan(FaultConfig(
    seed=28, crash_rate=0.2, straggler_rate=0.1, outlier_rate=0.08,
))

ENVIRONMENTS: Dict[str, Dict[str, object]] = {
    "clean": {},
    "faults": {"faults": CHAOS, "retry": RetryPolicy(max_attempts=2)},
    "ambient": {"network_ambient": 1.5},
    "faults+ambient": {
        "faults": CHAOS, "retry": RetryPolicy(max_attempts=2),
        "network_ambient": 1.5,
    },
}


def make_runner(environment: str) -> ClusterRunner:
    return ClusterRunner(
        ClusterSpec(num_nodes=4, cores_per_node=16),
        base_seed=7,
        **ENVIRONMENTS[environment],
    )


def _probe_all(oracle: MeasurementOracle) -> List[float]:
    settings = ((2.0, 1), (6.0, 3), (8.0, 2), (0.0, 2), (6.0, 3))
    return [oracle.normalized(pressure, count) for pressure, count in settings]


STEPS: List[Tuple[str, Callable[[ClusterRunner], object]]] = [
    ("solo", lambda r: r.solo_time(COMPUTE_APP)),
    ("solo_units", lambda r: r.solo_time(NETWORK_APP, num_units=2)),
    ("hom", lambda r: r.measure(COMPUTE_APP, 6.0, 2)),
    ("hom_time", lambda r: r.measure_time(COMPUTE_APP, 3.0, 1, rep=1)),
    ("hom_span", lambda r: r.measure(NETWORK_APP, 8.0, 1, span=2)),
    ("hom_no_pressure", lambda r: r.measure(COMPUTE_APP, 0.0, 3)),
    ("hom_no_nodes", lambda r: r.measure_time(OTHER_APP, 5.0, 0)),
    ("het", lambda r: r.measure_heterogeneous(COMPUTE_APP, {0: 4.0, 3: 8.0})),
    ("het_time", lambda r: r.measure_heterogeneous_time(
        NETWORK_APP, {2: 6.0, 1: 2.0}, rep=2, span=3)),
    ("het_no_pressure", lambda r: r.measure_heterogeneous(
        COMPUTE_APP, {0: 0.0, 1: 0.0})),
    ("nethom", lambda r: r.measure(
        NETWORK_APP, 6.0, 2, domain=ContentionDomain.NETWORK)),
    ("nethom_time", lambda r: r.measure_time(
        NETWORK_APP, 3.0, 3, rep=1, domain=ContentionDomain.NETWORK)),
    ("nethom_span", lambda r: r.measure(
        COMPUTE_APP, 8.0, 1, span=2, domain=ContentionDomain.NETWORK)),
    ("nethom_no_pressure", lambda r: r.measure(
        NETWORK_APP, 0.0, 2, domain=ContentionDomain.NETWORK)),
    ("nethom_no_nodes", lambda r: r.measure_time(
        NETWORK_APP, 4.0, 0, span=3, domain=ContentionDomain.NETWORK)),
    ("nethet", lambda r: r.measure_heterogeneous(
        NETWORK_APP, {0: 4.0, 2: 8.0}, domain=ContentionDomain.NETWORK)),
    ("nethet_time", lambda r: r.measure_heterogeneous_time(
        COMPUTE_APP, {1: 6.0}, rep=1, span=2, domain=ContentionDomain.NETWORK)),
    ("nethet_no_pressure", lambda r: r.measure_heterogeneous(
        NETWORK_APP, {3: 0.0}, domain=ContentionDomain.NETWORK)),
    ("corun", lambda r: r.corun_pair(COMPUTE_APP, NETWORK_APP)),
    ("corun_self", lambda r: r.corun_pair(NETWORK_APP, NETWORK_APP, rep=1)),
    ("deploy", lambda r: r.run_deployments([
        ("a", COMPUTE_APP, {0: 0, 1: 1}), ("b", NETWORK_APP, {0: 1, 1: 2, 2: 3}),
    ])),
    ("deploy_rep", lambda r: r.run_deployments(
        [("x", OTHER_APP, {0: 0, 1: 0}), ("y", COMPUTE_APP, {0: 3})], rep=1,
    )),
    ("oracle", lambda r: _probe_all(MeasurementOracle(r, OTHER_APP, 4))),
    ("oracle_network", lambda r: _probe_all(
        MeasurementOracle(r, NETWORK_APP, 3, domain=ContentionDomain.NETWORK)
    )),
    ("mixed_sequence", lambda r: [
        r.solo_time(OTHER_APP, num_units=3),
        r.measure(OTHER_APP, 4.0, 2),
        r.measure_time(COMPUTE_APP, 7.0, 3, rep=3),
        r.measure_heterogeneous(OTHER_APP, {0: 8.0, 1: 2.0}),
        r.corun_pair(OTHER_APP, COMPUTE_APP),
        r.run_deployments([("p", OTHER_APP, {0: 2, 1: 3})]),
    ]),
]


def sibling_sequence(r: ClusterRunner) -> List[object]:
    """Run on a second runner, which measures its own solo baselines."""
    return [
        r.measure(NETWORK_APP, 5.0, 1, rep=4),
        r.measure_heterogeneous_time(COMPUTE_APP, {3: 2.0}, span=4),
        r.solo_time(COMPUTE_APP, num_units=1),
    ]


def separate_sequence(r: ClusterRunner) -> List[object]:
    """Run on the main runner last, recorded into a trace of its own."""
    return [
        r.measure(NETWORK_APP, 5.0, 2),
        r.solo_time(NETWORK_APP, num_units=3),
        r.measure_heterogeneous_time(COMPUTE_APP, {2: 3.0}, span=3),
        r.corun_pair(NETWORK_APP, OTHER_APP),
        r.run_deployments(
            [("q", NETWORK_APP, {0: 0, 1: 1}), ("r", OTHER_APP, {0: 1})], rep=2,
        ),
        r.measure(OTHER_APP, 6.0, 1, rep=2),
    ]


def _encode(value: object) -> object:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): _encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    return value


def _outcome(call: Callable[[], object]) -> object:
    try:
        return _encode(call())
    except MeasurementFault as fault:
        return f"MeasurementFault: {fault}"


def _accounting(runner: ClusterRunner) -> List[object]:
    return [
        runner.measurement_count,
        runner.solo_measurement_count,
        sorted(runner.faulted_workloads),
    ]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def capture(environment: str) -> Dict[str, object]:
    """One pass over every measurement kind; return its pinned fields."""
    runner = make_runner(environment)
    sibling = make_runner(environment)
    values: Dict[str, object] = {}
    with recording() as rec:
        for name, step in STEPS:
            values[name] = _outcome(lambda: step(runner))
        values["sibling_sequence"] = _outcome(lambda: sibling_sequence(sibling))
    with recording() as separate_rec:
        values["separate_sequence"] = _outcome(
            lambda: separate_sequence(runner)
        )
    return {
        "values": values,
        "runner": _accounting(runner),
        "sibling": _accounting(sibling),
        "trace_sha256": _sha256(to_jsonl(rec)),
        "separate_trace_sha256": _sha256(to_jsonl(separate_rec)),
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("environment", list(ENVIRONMENTS))
def test_runner_matches_golden(environment, golden):
    assert capture(environment) == golden[environment]


def test_golden_covers_the_contract(golden):
    for environment, record in golden.items():
        faulty = "faults" in environment
        values = record["values"]
        exhausted = [
            name for name, value in values.items()
            if isinstance(value, str) and value.startswith("MeasurementFault")
        ]
        assert bool(exhausted) == faulty
        assert not any(name.endswith("sequence") for name in exhausted)
        assert bool(record["runner"][2]) == faulty
        assert values["hom_no_pressure"] == values["het_no_pressure"] == (
            1.0).hex()


def _write_golden() -> None:
    golden = {environment: capture(environment) for environment in ENVIRONMENTS}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write_golden()
