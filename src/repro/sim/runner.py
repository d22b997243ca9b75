"""The measurement oracle: profiling-time access to the "testbed".

The paper's model construction only ever observes wall-clock execution
times of controlled runs: the target application deployed across the
cluster, with bubble generators pinned to a chosen subset of nodes at a
chosen pressure (Section 4.1's ``measure`` function).
:class:`ClusterRunner` provides exactly that interface on top of the
simulator, plus the pairwise co-run used for validation (Section 4.3),
and counts every measurement so profiling *cost* can be reported as in
Table 3.

Determinism: each distinct measurement setting maps to a stable seed,
so repeating a measurement returns the same time (like re-reading a
log), while a different ``rep`` index models an independent repeated
run.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro._util import stable_seed
from repro.apps.base import Workload
from repro.obs import recorder as _obs
from repro.apps.catalog import get_workload, make_bubble
from repro.cluster.cluster import ClusterSpec
from repro.cluster.contention import ContentionDomain
from repro.errors import ConfigurationError, MeasurementFault
from repro.faults.injection import attempt_reading
from repro.faults.plan import FaultPlan
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.parallel import fan_out, resolve_workers
from repro.sim.cache import MeasurementCache, cache_key
from repro.sim.execution import CoRunExecutor, DeployedInstance
from repro.sim.noise import NoiseProfile, PRIVATE_TESTBED_NOISE
from repro.units import MAX_PRESSURE


@dataclass(frozen=True)
class MeasurementRequest:
    """One measurement of a :meth:`ClusterRunner.measure_many` batch.

    A request is plain data — the method name plus frozen positional
    and keyword arguments — so batches can be shipped to worker
    processes.  Use the named constructors rather than spelling the
    tuples out.
    """

    method: str
    args: Tuple = ()
    kwargs: Tuple[Tuple[str, object], ...] = ()

    _ALLOWED = (
        "solo_time",
        "measure_time",
        "measure",
        "measure_heterogeneous_time",
        "measure_heterogeneous",
        "corun_pair",
        "run_deployments",
    )

    def __post_init__(self) -> None:
        if self.method not in self._ALLOWED:
            raise ConfigurationError(
                f"unknown measurement method {self.method!r}; "
                f"allowed: {', '.join(self._ALLOWED)}"
            )

    def apply(self, runner: "ClusterRunner"):
        """Execute this request against ``runner``."""
        return getattr(runner, self.method)(*self.args, **dict(self.kwargs))

    # -- named constructors -------------------------------------------
    @classmethod
    def solo(cls, abbrev: str, *, num_units: Optional[int] = None):
        """Solo-baseline request (:meth:`ClusterRunner.solo_time`)."""
        return cls("solo_time", (abbrev,), (("num_units", num_units),))

    @classmethod
    def measure(
        cls, abbrev: str, pressure: float, interfering: int, *,
        rep: int = 0, span: Optional[int] = None, normalized: bool = True,
    ):
        """Homogeneous-setting request (Algorithm 1/2's ``measure``)."""
        method = "measure" if normalized else "measure_time"
        return cls(
            method, (abbrev, float(pressure), int(interfering)),
            (("rep", rep), ("span", span)),
        )

    @classmethod
    def heterogeneous(
        cls, abbrev: str, node_pressures: Mapping[int, float], *,
        rep: int = 0, span: Optional[int] = None, normalized: bool = True,
    ):
        """Arbitrary per-node bubble assignment request."""
        method = "measure_heterogeneous" if normalized else (
            "measure_heterogeneous_time"
        )
        pressures = tuple(sorted((int(n), float(p)) for n, p in
                                 dict(node_pressures).items()))
        return cls(method, (abbrev, pressures), (("rep", rep), ("span", span)))

    @classmethod
    def corun(cls, abbrev_a: str, abbrev_b: str, *, rep: int = 0):
        """Pairwise co-run request (Section 4.3 validation)."""
        return cls("corun_pair", (abbrev_a, abbrev_b), (("rep", rep),))

    @classmethod
    def deployments(
        cls,
        deployments: Sequence[Tuple[str, str, Mapping[int, int]]],
        *,
        rep: int = 0,
    ):
        """Ground-truth co-run of arbitrary deployments."""
        frozen = tuple(
            (key, abbrev, tuple(sorted(dict(units).items())))
            for key, abbrev, units in deployments
        )
        return cls("run_deployments", (frozen,), (("rep", rep),))


#: Per-process runner used by measurement fan-out workers.
_WORKER_RUNNER: Optional["ClusterRunner"] = None


def _init_measurement_worker(blob: bytes) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = pickle.loads(blob)


def _run_measurement_request(payload):
    """Execute one request in a worker; report state deltas to the parent.

    ``payload`` is ``(request, die, parent_pid)``.  In a pool worker
    with ``die`` set, the process exits hard — modelling a node crash
    mid-batch and breaking the pool.  During the serial recovery the
    parent re-runs the same payload in-process (its pid matches
    ``parent_pid``), so the doomed item computes normally and the batch
    result is identical to an undisturbed run.

    Returns ``(value, fault, solo_entries, measurement_delta,
    cache_entries, faulted_workloads)``, where ``fault`` is the
    request's :class:`~repro.errors.MeasurementFault`, if any.  The
    entries and workloads are everything this worker has learned so
    far (the parent deduplicates in batch order, which reproduces the
    serial accounting exactly).
    """
    request, die, parent_pid = payload
    if die and os.getpid() != parent_pid:
        os._exit(1)
    runner = _WORKER_RUNNER
    assert runner is not None, "measurement worker not initialized"
    count_before = runner.measurement_count
    value = fault = None
    try:
        value = request.apply(runner)
    except MeasurementFault as exc:
        fault = exc
    cache_entries = (
        runner.cache.fresh_entries() if runner.cache is not None else {}
    )
    return (
        value,
        fault,
        dict(runner._solo_cache),
        runner.measurement_count - count_before,
        cache_entries,
        set(runner.faulted_workloads),
    )


class ClusterRunner:
    """Runs controlled experiments on the simulated cluster.

    Parameters
    ----------
    spec:
        Cluster shape; defaults to the paper's private 8-node testbed.
    noise:
        Environment noise profile.
    base_seed:
        Root seed; every measurement derives a stable child seed.
    workload_factory:
        Hook for substituting the catalog (used by the EC2 environment
        and by tests with synthetic workloads).
    cache:
        Optional persistent measurement store.  Because every
        measurement is a deterministic function of its stable-seed
        label, a cached result is indistinguishable from re-running
        the simulation — re-running a benchmark replays recorded
        times like re-reading a run log.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`.  When any of
        its rates are nonzero, every measurement runs on the retrying
        path: attempts can crash (and are retried with deterministic
        simulated-time backoff), probe readings can come back
        straggler-inflated or as outliers, and parallel fan-out batches
        can lose workers.  All fault decisions are stable functions of
        the measurement labels, so a faulty run replays byte-identically.
    retry:
        Retry budget/backoff for faulting measurements; defaults to
        :data:`~repro.faults.retry.DEFAULT_RETRY_POLICY`.
    network_ambient:
        Constant NETWORK-domain background pressure applied to every
        node's uplink in every run (the ``--network-noise`` injection).
        Deterministic (no RNG draw) and 0.0 by default, which keeps the
        environment fingerprint — and therefore every cache key and
        measurement — byte-identical to builds without the flag.
    """

    def __init__(
        self,
        spec: Optional[ClusterSpec] = None,
        *,
        noise: NoiseProfile = PRIVATE_TESTBED_NOISE,
        base_seed: int = 2016,
        workload_factory=get_workload,
        cache: Optional[MeasurementCache] = None,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        network_ambient: float = 0.0,
    ) -> None:
        self.spec = spec or ClusterSpec()
        self.noise = noise
        self.base_seed = base_seed
        if not 0.0 <= network_ambient <= MAX_PRESSURE:
            raise ConfigurationError(
                f"network_ambient must be in [0, {MAX_PRESSURE}], "
                f"got {network_ambient!r}"
            )
        self.network_ambient = float(network_ambient)
        self._workload_factory = workload_factory
        self._solo_cache: Dict[Tuple[str, int], float] = {}
        self.measurement_count = 0
        #: Simulated runs spent on solo baselines (Table 3's reported
        #: profiling cost must account for these too).
        self.solo_measurement_count = 0
        self.cache = cache
        self.faults = faults
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        #: Workloads for which some reading exhausted its retry budget.
        #: Consumers (admission control) treat these as *degraded*: their
        #: profiles partially rest on fallbacks, so predictions fall
        #: back to the conservative ALL-max mapping.
        self.faulted_workloads: Set[str] = set()
        self._fanout_batches = 0
        self._fingerprint = self._environment_fingerprint()

    # ------------------------------------------------------------------
    # Persistent-cache plumbing
    # ------------------------------------------------------------------
    def _environment_fingerprint(self) -> str:
        """Stable identity of this measurement environment.

        Cache entries are only replayed for an identical environment:
        same cluster shape, same base seed, same noise profile — and,
        when fault injection is active, the same fault plan: a reading
        recorded under injected faults must never be replayed into a
        clean run (or vice versa).
        """
        noise = self.noise
        ambient = (
            None if noise.ambient is None
            else (noise.ambient.max_pressure, noise.ambient.occupancy)
        )
        parts = [
            "v1",
            self.spec.num_nodes,
            self.spec.cores_per_node,
            self.base_seed,
            noise.jitter_scale,
            ambient,
            noise.stall.prob_at_max,
            noise.stall.scale,
        ]
        if self.faults_active:
            parts.append(self.faults.signature())
        # Appended only when active so flat-network cache keys are
        # unchanged from scalar-era builds.
        if self.network_ambient > 0.0:
            parts.append(("netamb", self.network_ambient))
        return "|".join(str(part) for part in parts)

    @property
    def faults_active(self) -> bool:
        """Whether measurements run on the fault-injected retrying path."""
        return self.faults is not None and self.faults.enabled

    def _read(
        self,
        label: Tuple,
        simulate: Callable[[], float],
        *,
        workloads: Sequence[str],
        perturb: bool,
    ) -> float:
        """One reading, fault-injected and retried when faults are active.

        The clean path (no plan, or an all-zero plan) is exactly
        ``simulate()`` — no extra spans, counters, or draws — so runs
        without ``--faults`` stay byte-identical to pre-fault builds.
        An exhausted retry budget marks every involved workload as
        degraded before the :class:`~repro.errors.MeasurementFault`
        propagates.
        """
        if not self.faults_active:
            return simulate()
        try:
            return attempt_reading(
                self.faults,
                self.retry,
                tuple(label),
                simulate,
                workload=",".join(workloads),
                perturb=perturb,
            )
        except MeasurementFault:
            self.faulted_workloads.update(workloads)
            raise

    def _replay_or_simulate(
        self, span, labels: Tuple, simulate: Callable[[], object], *,
        runs: int = 1,
    ):
        """The recorded measurement under ``labels``, or a fresh one.

        A store hit counts ``measure.store_hit`` and marks ``span``
        replayed.  A miss counts ``measure.store_miss``, then calls
        ``simulate`` (which builds the deployments, so only misses pay
        for them), counts ``runs`` simulated runs and records the
        result.  Without a store every call simulates.
        """
        store_key = cache_key(self._fingerprint, *labels)
        if self.cache is not None:
            recorded = self.cache.get(store_key)
            if recorded is not None:
                _obs.RECORDER.count("measure.store_hit")
                span.set(replayed=True)
                if isinstance(recorded, dict):
                    return {key: float(item) for key, item in recorded.items()}
                return float(recorded)
            _obs.RECORDER.count("measure.store_miss")
        value = simulate()
        _obs.RECORDER.count("measure.simulated", runs)
        if self.cache is not None:
            self.cache.put(store_key, value)
        return value

    @property
    def total_measurement_count(self) -> int:
        """All simulated runs: interference settings plus solo baselines."""
        return self.measurement_count + self.solo_measurement_count

    # ------------------------------------------------------------------
    # Deployment construction
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of physical hosts in the environment."""
        return self.spec.num_nodes

    def workload(self, abbrev: str) -> Workload:
        """Instantiate the workload behind ``abbrev``."""
        return self._workload_factory(abbrev)

    def full_span_deployment(
        self, abbrev: str, *, instance_key: Optional[str] = None,
        span: Optional[int] = None,
    ) -> DeployedInstance:
        """Deploy one unit of ``abbrev`` per node on nodes 0..span-1.

        ``span`` defaults to the whole cluster (Section 3.1's
        configuration); Section 5 profiles at span 4, the deployment
        size its placements use.
        """
        span = span if span is not None else self.num_nodes
        if not 0 < span <= self.num_nodes:
            raise ConfigurationError(
                f"span {span} outside (0, {self.num_nodes}]"
            )
        workload = self.workload(abbrev)
        units = {i: i for i in range(span)}
        return DeployedInstance(
            instance_key=instance_key or abbrev,
            workload=workload,
            units_to_nodes=units,
        )

    def _bubble_instances(
        self,
        node_pressures: Mapping[int, float],
        *,
        domain: ContentionDomain = ContentionDomain.COMPUTE,
    ) -> List[DeployedInstance]:
        prefix = (
            "netbubble" if domain is ContentionDomain.NETWORK else "bubble"
        )
        instances: List[DeployedInstance] = []
        for node_id, level in sorted(node_pressures.items()):
            if level <= 0.0:
                continue
            if not 0 <= node_id < self.num_nodes:
                raise ConfigurationError(
                    f"interfering node {node_id} outside the {self.num_nodes}-node cluster"
                )
            bubble = make_bubble(min(level, MAX_PRESSURE), domain=domain)
            instances.append(
                DeployedInstance(
                    instance_key=f"{prefix}@n{node_id}",
                    workload=bubble,
                    units_to_nodes={0: node_id},
                )
            )
        return instances

    def _finish_times(
        self, instances: List[DeployedInstance], seed: int, *,
        sustained: bool = False,
    ) -> Dict[str, float]:
        """Finish time per instance key of one co-run in this environment."""
        link = None  # flat unless every uplink carries ambient noise
        if self.network_ambient > 0.0:
            link = {n: self.network_ambient for n in range(self.num_nodes)}
        results = CoRunExecutor(
            instances, seed=seed, noise=self.noise, num_nodes=self.num_nodes,
            ambient_link=link, sustained=sustained,
        ).run()
        return {
            instance.instance_key: results[instance.instance_key].finish_time
            for instance in instances
        }

    def interfering_nodes(self, count: int, *, span: Optional[int] = None) -> List[int]:
        """Which nodes host bubbles for a ``count``-node setting.

        Bubbles fill from the highest-numbered spanned node downward so
        the master (node 0) is interfered with last, mirroring the
        common experimental practice of keeping the head node clean as
        long as possible.
        """
        span = span if span is not None else self.num_nodes
        if not 0 <= count <= span <= self.num_nodes:
            raise ConfigurationError(
                f"interfering-node count {count} outside [0, span {span}]"
            )
        return list(range(span - count, span))

    # ------------------------------------------------------------------
    # Measurements (the profiling interface)
    # ------------------------------------------------------------------
    #: Repetitions averaged into the solo baseline.  The baseline is the
    #: denominator of every normalized time, so it is measured more
    #: carefully than individual interference settings.
    SOLO_REPS = 3

    def solo_time(self, abbrev: str, *, num_units: Optional[int] = None) -> float:
        """Execution time of the workload with no interference.

        Cached: the paper measures the solo baseline once per workload
        (we average :attr:`SOLO_REPS` runs to stabilize the
        normalization denominator).  The :attr:`SOLO_REPS` runs count
        toward :attr:`solo_measurement_count` whether they are freshly
        simulated or replayed from the persistent cache, so reported
        profiling costs are replay-independent.
        """
        num_units = num_units if num_units is not None else self.num_nodes
        key = (abbrev, num_units)
        cached = self._solo_cache.get(key)
        if cached is not None:
            _obs.RECORDER.count("measure.solo_memo_hit")
            return cached
        units = {i: i % self.num_nodes for i in range(num_units)}

        def simulate_rep(rep: int) -> float:
            instance = DeployedInstance(abbrev, self.workload(abbrev), units)
            seed = stable_seed(self.base_seed, abbrev, "solo", num_units, rep)
            return self._finish_times([instance], seed)[abbrev]

        def simulate() -> float:
            # The solo baseline is every normalization's denominator,
            # so its runs can crash and be retried but are never
            # value-perturbed (perturb=False).
            times = [
                self._read(
                    ("solo", abbrev, num_units, rep),
                    lambda rep=rep: simulate_rep(rep),
                    workloads=(abbrev,),
                    perturb=False,
                )
                for rep in range(self.SOLO_REPS)
            ]
            return sum(times) / len(times)

        with _obs.RECORDER.span(
            "measure.solo", workload=abbrev, units=num_units
        ) as span:
            solo = self._replay_or_simulate(
                span, ("solo", abbrev, num_units), simulate,
                runs=self.SOLO_REPS,
            )
            span.set_sim(solo)
        self._solo_cache[key] = solo
        self.solo_measurement_count += self.SOLO_REPS
        return solo

    def measure_time(
        self, abbrev: str, pressure: float, interfering: int, *, rep: int = 0,
        span: Optional[int] = None,
        domain: ContentionDomain = ContentionDomain.COMPUTE,
    ) -> float:
        """Absolute time with ``interfering`` nodes at ``pressure``.

        This is the paper's ``measure(i, j)`` (Algorithm 1/2), counted
        toward profiling cost.  ``span`` selects the deployment size
        the model is being profiled for.  ``domain`` selects the
        bubble: cache thrashers for COMPUTE, traffic generators
        saturating the interfering nodes' uplinks for NETWORK.
        """
        if pressure == 0.0 or interfering == 0:
            return self.solo_time(abbrev, num_units=span)
        nodes = self.interfering_nodes(interfering, span=span)
        return self._measure_setting_time(
            abbrev, {n: pressure for n in nodes}, rep=rep, span=span,
            label=("hom", pressure, interfering, span), domain=domain,
        )

    def measure(
        self, abbrev: str, pressure: float, interfering: int, *, rep: int = 0,
        span: Optional[int] = None,
        domain: ContentionDomain = ContentionDomain.COMPUTE,
    ) -> float:
        """Normalized time with ``interfering`` nodes at ``pressure``."""
        return self.measure_time(
            abbrev, pressure, interfering, rep=rep, span=span, domain=domain
        ) / self.solo_time(abbrev, num_units=span)

    def measure_heterogeneous_time(
        self,
        abbrev: str,
        node_pressures: Mapping[int, float],
        *,
        rep: int = 0,
        span: Optional[int] = None,
        domain: ContentionDomain = ContentionDomain.COMPUTE,
    ) -> float:
        """Absolute time with an arbitrary per-node bubble assignment.

        Counts toward :attr:`measurement_count` whether simulated
        fresh or replayed from the persistent cache.
        """
        node_pressures = dict(node_pressures)
        label = ("het", span) + tuple(sorted(node_pressures.items()))
        return self._measure_setting_time(
            abbrev, node_pressures, rep=rep, span=span, label=label,
            domain=domain,
        )

    def measure_heterogeneous(
        self, abbrev: str, node_pressures: Mapping[int, float], *, rep: int = 0,
        span: Optional[int] = None,
        domain: ContentionDomain = ContentionDomain.COMPUTE,
    ) -> float:
        """Normalized time under a heterogeneous bubble assignment."""
        node_pressures = dict(node_pressures)
        if all(p <= 0.0 for p in node_pressures.values()):
            return 1.0
        time = self.measure_heterogeneous_time(
            abbrev, node_pressures, rep=rep, span=span, domain=domain
        )
        return time / self.solo_time(abbrev, num_units=span)

    def _measure_setting_time(
        self,
        abbrev: str,
        node_pressures: Dict[int, float],
        *,
        rep: int,
        span: Optional[int],
        label: Tuple,
        domain: ContentionDomain,
    ) -> float:
        """Shared measurement core for both contention domains.

        ``label`` names the setting's kind (``hom``/``het``) and
        parameters.  A NETWORK setting's kind gains a ``net`` prefix,
        which keeps it apart from COMPUTE settings in seeds, cache
        keys, spans and accounting; ``domain`` also selects which
        bubble variant is pinned to the interfering nodes.
        """
        domain = ContentionDomain.parse(domain)
        if domain is ContentionDomain.NETWORK:
            label = ("net" + label[0],) + label[1:]
        self.measurement_count += 1
        attrs = {"workload": abbrev, "kind": label[0], "rep": rep}
        if label[0] in ("hom", "nethom"):
            attrs["pressure"] = float(label[1])
            attrs["interfering"] = int(label[2])
        else:
            attrs["nodes"] = len(node_pressures)
        reading = ("measure", abbrev, rep) + label
        with _obs.RECORDER.span("measure.setting", **attrs) as obs_span:

            def simulate() -> float:
                instances = [self.full_span_deployment(abbrev, span=span)]
                instances += self._bubble_instances(node_pressures, domain=domain)
                seed = stable_seed(self.base_seed, abbrev, rep, *label)
                # Probe readings take the fully perturbable path:
                # stragglers and outliers land here, where robust
                # profiling (median-of-k re-probes) can catch them.
                return self._read(
                    reading,
                    lambda: self._finish_times(instances, seed)[abbrev],
                    workloads=(abbrev,),
                    perturb=True,
                )

            time = self._replay_or_simulate(obs_span, reading, simulate)
            obs_span.set_sim(time)
        return time

    # ------------------------------------------------------------------
    # Co-runs (validation and placement ground truth)
    # ------------------------------------------------------------------
    def corun_pair(
        self, abbrev_a: str, abbrev_b: str, *, rep: int = 0
    ) -> Dict[str, float]:
        """Run two workloads spanning all nodes together (Section 4.3).

        Returns normalized execution times keyed by instance key
        (``"<abbrev>#0"`` / ``"<abbrev>#1"`` so identical workloads can
        co-run with themselves).
        """
        key_a, key_b = f"{abbrev_a}#0", f"{abbrev_b}#1"
        label = ("corun", abbrev_a, abbrev_b, rep)
        with _obs.RECORDER.span(
            "measure.corun", a=abbrev_a, b=abbrev_b, rep=rep
        ) as obs_span:

            def simulate() -> Dict[str, float]:
                instances = [
                    self.full_span_deployment(abbrev_a, instance_key=key_a),
                    self.full_span_deployment(abbrev_b, instance_key=key_b),
                ]
                seed = stable_seed(self.base_seed, *label)
                # Ground truth: runs can crash and be retried, but a
                # completed run's values are believed (perturb=False).
                return self._read(
                    label,
                    lambda: self._finish_times(instances, seed, sustained=True),
                    workloads=(abbrev_a, abbrev_b),
                    perturb=False,
                )

            finish_times = self._replay_or_simulate(obs_span, label, simulate)
            obs_span.set_sim(max(finish_times.values()))
        return {
            key_a: finish_times[key_a] / self.solo_time(abbrev_a),
            key_b: finish_times[key_b] / self.solo_time(abbrev_b),
        }

    def run_deployments(
        self,
        deployments: Sequence[Tuple[str, str, Mapping[int, int]]],
        *,
        rep: int = 0,
    ) -> Dict[str, float]:
        """Co-run arbitrary deployments; return normalized times.

        Parameters
        ----------
        deployments:
            Tuples of (instance_key, workload abbrev, unit->node map).
        rep:
            Independent-repetition index.

        Returns
        -------
        dict
            Normalized execution time per instance key; each instance
            is normalized against a solo run of the same unit count.
        """
        deployments = [
            (key, abbrev, dict(units)) for key, abbrev, units in deployments
        ]
        label = ("deploy", rep) + tuple(
            str((key, abbrev, tuple(sorted(units.items()))))
            for key, abbrev, units in deployments
        )
        with _obs.RECORDER.span(
            "measure.deploy", instances=len(deployments), rep=rep
        ) as obs_span:

            def simulate() -> Dict[str, float]:
                instances = [
                    DeployedInstance(key, self.workload(abbrev), units)
                    for key, abbrev, units in deployments
                ]
                seed = stable_seed(self.base_seed, *label)
                # Ground truth for the service's QoS accounting: crash
                # faults retry, but completed values are never perturbed.
                return self._read(
                    label,
                    lambda: self._finish_times(instances, seed, sustained=True),
                    workloads=tuple(abbrev for _, abbrev, _ in deployments),
                    perturb=False,
                )

            finish_times = self._replay_or_simulate(obs_span, label, simulate)
            if finish_times:
                obs_span.set_sim(max(finish_times.values()))
        normalized: Dict[str, float] = {}
        for key, abbrev, units in deployments:
            solo = self.solo_time(abbrev, num_units=len(units))
            normalized[key] = finish_times[key] / solo
        return normalized

    # ------------------------------------------------------------------
    # Batch measurement fan-out
    # ------------------------------------------------------------------
    def measure_many(
        self,
        requests: Sequence[MeasurementRequest],
        *,
        max_workers: Optional[int] = None,
    ) -> List:
        """Run a batch of measurements, optionally across processes.

        Because every measurement derives a stable seed from its own
        setting, the batch is order-free and embarrassingly parallel:
        results (and the runner's measurement accounting) are
        bit-identical to issuing the requests one by one in order.
        That includes a request whose reading exhausts its retry
        budget: the accounting of every request before it, and its
        own, is kept, and its :class:`~repro.errors.MeasurementFault`
        is raised.

        Parameters
        ----------
        requests:
            The batch, in result order.
        max_workers:
            ``None``/``0``/``1`` run serially in-process; a positive
            count forks that many workers; a negative count uses the
            machine default (:func:`repro.parallel.default_max_workers`).

        Returns
        -------
        list
            One result per request, in request order.
        """
        requests = list(requests)
        workers = resolve_workers(max_workers)
        _obs.RECORDER.count("fanout.batches")
        _obs.RECORDER.count("fanout.requests", len(requests))
        blob = None
        if workers > 1 and len(requests) >= 2:
            try:
                blob = pickle.dumps(self)
            except Exception:
                pass
        if blob is None:
            with _obs.RECORDER.span(
                "measure.batch", requests=len(requests), workers=1
            ):
                return [request.apply(self) for request in requests]
        _obs.RECORDER.count("fanout.parallel_requests", len(requests))
        self._fanout_batches += 1
        batch = ("fanout", self._fanout_batches)
        with _obs.RECORDER.span(
            "measure.batch", requests=len(requests), workers=workers,
            parallel=True,
        ):
            victim = None
            if self.faults_active and self.faults.pool_fails(batch):
                # The plan dooms one worker this batch: the victim's
                # worker exits hard, and fan_out's BrokenProcessPool
                # recovery re-runs whatever was unfinished serially in
                # the parent.
                victim = self.faults.pool_victim(batch, len(requests))
                _obs.RECORDER.count("fault.pool_kill")
            parent_pid = os.getpid()
            outcomes = fan_out(
                _run_measurement_request,
                [
                    (request, index == victim, parent_pid)
                    for index, request in enumerate(requests)
                ],
                max_workers=workers,
                initializer=_init_measurement_worker,
                initargs=(blob,),
            )
            values: List = []
            for outcome in outcomes:
                value, fault, solo_entries, delta, cache_entries, faulted = outcome
                # Replay the serial accounting in batch order: each solo
                # baseline is charged once, at the first request that
                # needed it, exactly as the serial path would.
                for key, solo in solo_entries.items():
                    if key not in self._solo_cache:
                        self._solo_cache[key] = solo
                        self.solo_measurement_count += self.SOLO_REPS
                self.measurement_count += delta
                if self.cache is not None:
                    self.cache.merge(cache_entries)
                if fault is not None:
                    # The serial loop stops here: later requests never
                    # ran, so none of their accounting counts.
                    self.faulted_workloads.update(faulted)
                    raise fault
                values.append(value)
            return values
