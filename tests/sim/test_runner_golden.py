"""Golden contract for the measurement oracle, :class:`ClusterRunner`.

Every measurement kind runs in four environments: clean, fault
injected, ambient link noise, and both.  Each environment runs twice on
one :class:`MeasurementCache`, first fresh and then replayed from what
the fresh pass recorded.  The kinds are:

* solo baselines;
* homogeneous and heterogeneous settings in both contention domains,
  normalized and absolute, including the zero-pressure shortcuts;
* pairwise co-runs and arbitrary deployments;
* profiling-oracle probes in both domains;
* ``measure_many`` batches run serially, on a runner that cannot be
  pickled, and in two worker processes.

``golden/runner_measurements.json`` pins, per environment and pass:

* every value as ``float.hex``, or the error when a reading exhausts
  its retry budget;
* ``measurement_count``, ``solo_measurement_count`` and the sorted
  ``faulted_workloads`` of both runners;
* the sorted cache entries;
* the SHA-256 of the deterministic JSONL trace (``obs.sinks.to_jsonl``)
  of the in-process calls, and of the 2-worker batch in the fault-free
  environments.  Under the fault plan that batch always loses a
  worker, and which requests the parent then re-runs depends on
  process timing, so its trace is not pinned there.

No request in a batch exhausts its retry budget.

Regenerate only after an intentional change to measurement behaviour::

    PYTHONPATH=src python -m tests.sim.test_runner_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from repro.apps.catalog import get_workload
from repro.cluster.cluster import ClusterSpec
from repro.cluster.contention import ContentionDomain
from repro.core.profiling.plan import MeasurementOracle
from repro.errors import MeasurementFault
from repro.faults import FaultConfig, FaultPlan, RetryPolicy
from repro.obs import recording
from repro.obs.sinks import to_jsonl
from repro.sim.cache import MeasurementCache
from repro.sim.runner import ClusterRunner, MeasurementRequest

GOLDEN_PATH = (
    Path(__file__).resolve().parent / "golden" / "runner_measurements.json"
)

#: Cache-bound, allreduce-bound and a third catalog workload.
COMPUTE_APP = "M.lmps"
NETWORK_APP = "D.PS"
OTHER_APP = "H.KM"

#: Crashes often enough that, with two attempts per reading, some
#: direct readings exhaust their budget; every fan-out batch loses a
#: worker.  The seed keeps every batched request inside its budget.
CHAOS = FaultPlan(FaultConfig(
    seed=28, crash_rate=0.2, straggler_rate=0.1, outlier_rate=0.08,
    pool_failure_rate=1.0,
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


def make_runner(environment: str, cache: MeasurementCache, **options) -> ClusterRunner:
    return ClusterRunner(
        ClusterSpec(num_nodes=4, cores_per_node=16),
        base_seed=7,
        cache=cache,
        **dict(ENVIRONMENTS[environment], **options),
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
    ("batch_serial", lambda r: r.measure_many([
        MeasurementRequest.solo(OTHER_APP, num_units=3),
        MeasurementRequest.measure(OTHER_APP, 4.0, 2),
        MeasurementRequest.measure(COMPUTE_APP, 7.0, 3, rep=3, normalized=False),
        MeasurementRequest.heterogeneous(OTHER_APP, {0: 8.0, 1: 2.0}),
        MeasurementRequest.corun(OTHER_APP, COMPUTE_APP),
        MeasurementRequest.deployments([("p", OTHER_APP, {0: 2, 1: 3})]),
    ], max_workers=1)),
]

#: Run on a runner with a lambda workload factory, which cannot be
#: pickled, so ``max_workers=2`` falls back to the serial path.
UNPICKLABLE_BATCH = [
    MeasurementRequest.measure(NETWORK_APP, 5.0, 1, rep=4),
    MeasurementRequest.heterogeneous(
        COMPUTE_APP, {3: 2.0}, span=4, normalized=False,
    ),
    MeasurementRequest.solo(COMPUTE_APP, num_units=1),
]

PARALLEL_BATCH = [
    MeasurementRequest.measure(NETWORK_APP, 5.0, 2),
    MeasurementRequest.solo(NETWORK_APP, num_units=3),
    MeasurementRequest.heterogeneous(
        COMPUTE_APP, {2: 3.0}, span=3, normalized=False,
    ),
    MeasurementRequest.corun(NETWORK_APP, OTHER_APP),
    MeasurementRequest.deployments(
        [("q", NETWORK_APP, {0: 0, 1: 1}), ("r", OTHER_APP, {0: 1})], rep=2,
    ),
    MeasurementRequest.measure(OTHER_APP, 6.0, 1, rep=2),
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


def capture_pass(environment: str, cache: MeasurementCache) -> Dict[str, object]:
    """One pass over every measurement kind; return its pinned fields."""
    runner = make_runner(environment, cache)
    sibling = make_runner(
        environment, cache, workload_factory=lambda abbrev: get_workload(abbrev),
    )
    values: Dict[str, object] = {}
    with recording() as rec:
        for name, step in STEPS:
            values[name] = _outcome(lambda: step(runner))
        values["batch_unpicklable"] = _outcome(
            lambda: sibling.measure_many(UNPICKLABLE_BATCH, max_workers=2)
        )
    with recording() as fan_rec:
        values["batch_2_workers"] = _outcome(
            lambda: runner.measure_many(PARALLEL_BATCH, max_workers=2)
        )
    return {
        "values": values,
        "runner": _accounting(runner),
        "sibling": _accounting(sibling),
        "cache": sorted(
            [key, _encode(value)] for key, value in cache.fresh_entries().items()
        ),
        "trace_sha256": _sha256(to_jsonl(rec)),
        "fanout_trace_sha256": (
            None if runner.faults_active else _sha256(to_jsonl(fan_rec))
        ),
    }


def capture(environment: str) -> Dict[str, object]:
    """A fresh pass, then a pass replayed from the same cache."""
    cache = MeasurementCache()
    fresh = capture_pass(environment, cache)
    return {"fresh": fresh, "replay": capture_pass(environment, cache)}


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("environment", list(ENVIRONMENTS))
def test_runner_matches_golden(environment, golden):
    assert capture(environment) == golden[environment]


def test_golden_covers_the_contract(golden):
    for environment, passes in golden.items():
        faulty = "faults" in environment
        for record in passes.values():
            values = record["values"]
            exhausted = [
                name for name, value in values.items()
                if isinstance(value, str) and value.startswith("MeasurementFault")
            ]
            assert bool(exhausted) == faulty
            assert not any(name.startswith("batch") for name in exhausted)
            assert bool(record["runner"][2]) == faulty
            assert values["hom_no_pressure"] == values["het_no_pressure"] == (
                1.0).hex()
            assert (record["fanout_trace_sha256"] is None) == faulty
        assert passes["fresh"]["cache"] == passes["replay"]["cache"]
        assert passes["fresh"]["trace_sha256"] != passes["replay"]["trace_sha256"]


def _write_golden() -> None:
    golden = {environment: capture(environment) for environment in ENVIRONMENTS}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write_golden()
