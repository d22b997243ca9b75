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
from repro.sim.execution import CoRunExecutor, DeployedInstance
from repro.sim.noise import NoiseProfile, PRIVATE_TESTBED_NOISE
from repro.units import MAX_PRESSURE


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
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`.  When any of
        its rates are nonzero, every measurement runs on the retrying
        path: attempts can crash (and are retried with deterministic
        simulated-time backoff), and probe readings can come back
        straggler-inflated or as outliers.  All fault decisions are
        stable functions of the measurement labels, so a faulty run
        replays byte-identically.
    retry:
        Retry budget/backoff for faulting measurements; defaults to
        :data:`~repro.faults.retry.DEFAULT_RETRY_POLICY`.
    network_ambient:
        Constant NETWORK-domain background pressure applied to every
        node's uplink in every run (the ``--network-noise`` injection).
        Deterministic (no RNG draw) and 0.0 by default, which keeps
        every measurement byte-identical to builds without the flag.
    """

    def __init__(
        self,
        spec: Optional[ClusterSpec] = None,
        *,
        noise: NoiseProfile = PRIVATE_TESTBED_NOISE,
        base_seed: int = 2016,
        workload_factory=get_workload,
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
        self.faults = faults
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        #: Workloads for which some reading exhausted its retry budget.
        #: Consumers (admission control) treat these as *degraded*: their
        #: profiles partially rest on fallbacks, so predictions fall
        #: back to the conservative ALL-max mapping.
        self.faulted_workloads: Set[str] = set()

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

        Memoized per runner: the paper measures the solo baseline once
        per workload (we average :attr:`SOLO_REPS` runs to stabilize
        the normalization denominator), so the :attr:`SOLO_REPS` runs
        count toward :attr:`solo_measurement_count` once.
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

        with _obs.RECORDER.span(
            "measure.solo", workload=abbrev, units=num_units
        ) as span:
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
            solo = sum(times) / len(times)
            _obs.RECORDER.count("measure.simulated", self.SOLO_REPS)
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

        Counts toward :attr:`measurement_count`.
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
        which keeps it apart from COMPUTE settings in seeds, spans and
        accounting; ``domain`` also selects which bubble variant is
        pinned to the interfering nodes.
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
        with _obs.RECORDER.span("measure.setting", **attrs) as obs_span:
            instances = [self.full_span_deployment(abbrev, span=span)]
            instances += self._bubble_instances(node_pressures, domain=domain)
            seed = stable_seed(self.base_seed, abbrev, rep, *label)
            # Probe readings take the fully perturbable path:
            # stragglers and outliers land here, where robust
            # profiling (median-of-k re-probes) can catch them.
            time = self._read(
                ("measure", abbrev, rep) + label,
                lambda: self._finish_times(instances, seed)[abbrev],
                workloads=(abbrev,),
                perturb=True,
            )
            _obs.RECORDER.count("measure.simulated")
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
            instances = [
                self.full_span_deployment(abbrev_a, instance_key=key_a),
                self.full_span_deployment(abbrev_b, instance_key=key_b),
            ]
            seed = stable_seed(self.base_seed, *label)
            # Ground truth: runs can crash and be retried, but a
            # completed run's values are believed (perturb=False).
            finish_times = self._read(
                label,
                lambda: self._finish_times(instances, seed, sustained=True),
                workloads=(abbrev_a, abbrev_b),
                perturb=False,
            )
            _obs.RECORDER.count("measure.simulated")
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
            instances = [
                DeployedInstance(key, self.workload(abbrev), units)
                for key, abbrev, units in deployments
            ]
            seed = stable_seed(self.base_seed, *label)
            # Ground truth for the service's QoS accounting: crash
            # faults retry, but completed values are never perturbed.
            finish_times = self._read(
                label,
                lambda: self._finish_times(instances, seed, sustained=True),
                workloads=tuple(abbrev for _, abbrev, _ in deployments),
                perturb=False,
            )
            _obs.RECORDER.count("measure.simulated")
            if finish_times:
                obs_span.set_sim(max(finish_times.values()))
        normalized: Dict[str, float] = {}
        for key, abbrev, units in deployments:
            solo = self.solo_time(abbrev, num_units=len(units))
            normalized[key] = finish_times[key] / solo
        return normalized
