"""The interference-aware performance model (Sections 3.4 and 4).

An :class:`InterferenceProfile` bundles everything profiling produces
for one application:

1. its propagation matrix (sensitivity curves over homogeneous
   interference),
2. its best heterogeneity mapping policy, and
3. its bubble score (the pressure it exerts on co-runners).

The :class:`InterferenceModel` holds profiles for a set of applications
and predicts normalized execution times — for explicit interference
settings (used in validation) and for *placements*, where each
application's per-node pressure vector is derived from the bubble
scores of whatever shares its nodes (Figure 5's procedure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Collection, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.cluster.contention import ContentionDomain
from repro.core.curves import HomogeneousSetting, PropagationMatrix
from repro.core.kernel import AdmissionWave, PredictionKernel
from repro.core.policies import HeterogeneityPolicy, get_policy
from repro.errors import ModelError
from repro.faults.degradation import conservative_wave
from repro.obs import recorder as _obs

#: What :meth:`InterferenceModel.predict` accepts as an interference
#: description: a homogeneous ``(pressure, count)`` setting (a
#: :class:`HomogeneousSetting` or a plain 2-tuple) or a per-node
#: pressure vector (a list/array, one entry per spanned node).
Interference = Union[HomogeneousSetting, Tuple[float, float], Sequence[float]]

#: Heterogeneity mapping of the NETWORK domain.  Collectives are gated
#: by the bottleneck link — the slowest uplink serializes the whole
#: exchange — so the worst per-node link pressure propagates to the
#: entire span regardless of the workload's compute-domain policy.
NETWORK_POLICY = "ALL MAX"

#: The one (stateless) policy instance every NETWORK prediction uses.
_NETWORK_POLICY = get_policy(NETWORK_POLICY)


def _count_batch(size: int) -> None:
    """Batch-size counters for ``repro trace summarize`` rollups."""
    _obs.RECORDER.count("model.predict.batch.calls")
    _obs.RECORDER.count("model.predict.batch.requests", size)


@dataclass(frozen=True)
class InterferenceProfile:
    """Profiled interference behaviour of one application.

    The scalar-era fields describe the COMPUTE contention domain
    (LLC + memory bandwidth).  ``network_matrix``/``network_score``
    describe the NETWORK domain and stay at their defaults for every
    profile built without network profiling — serialization omits them
    entirely in that case, so existing model files round-trip
    byte-identically.
    """

    workload: str
    matrix: PropagationMatrix
    policy_name: str
    bubble_score: float
    #: Propagation matrix over NETWORK-domain (link-noise) settings;
    #: ``None`` means the workload was not profiled for the network
    #: dimension and its predictions are compute-only.
    network_matrix: Optional[PropagationMatrix] = None
    #: Link pressure the workload exerts on co-runners' uplinks (its
    #: network bubble score).
    network_score: float = 0.0

    def __post_init__(self) -> None:
        for name in ("bubble_score", "network_score"):
            score = getattr(self, name)
            # NaN passes ``< 0``; caught here, it cannot surface later
            # as a NaN pressure in some co-runner's prediction.
            if not math.isfinite(score):
                raise ModelError(f"{name} must be finite, got {score!r}")
            if score < 0:
                raise ModelError(f"{name} must be non-negative")
        get_policy(self.policy_name)  # validates the name

    @cached_property
    def policy(self) -> HeterogeneityPolicy:
        """The profile's heterogeneity policy, instantiated once."""
        return get_policy(self.policy_name)

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        payload = {
            "workload": self.workload,
            "matrix": self.matrix.to_dict(),
            "policy": self.policy_name,
            "bubble_score": self.bubble_score,
        }
        if self.network_matrix is not None:
            payload["network_matrix"] = self.network_matrix.to_dict()
        if self.network_score:
            payload["network_score"] = self.network_score
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "InterferenceProfile":
        """Inverse of :meth:`to_dict`."""
        network_matrix = payload.get("network_matrix")
        return cls(
            workload=payload["workload"],
            matrix=PropagationMatrix.from_dict(payload["matrix"]),
            policy_name=payload["policy"],
            bubble_score=payload["bubble_score"],
            network_matrix=(
                None if network_matrix is None
                else PropagationMatrix.from_dict(network_matrix)
            ),
            network_score=payload.get("network_score", 0.0),
        )


class InterferenceModel:
    """Predicts distributed applications' performance under interference.

    Parameters
    ----------
    profiles:
        One :class:`InterferenceProfile` per application the model
        knows about.
    """

    def __init__(self, profiles: Mapping[str, InterferenceProfile]) -> None:
        self._profiles = dict(profiles)
        #: Bumped on every profile registration; the cached
        #: :class:`PredictionKernel` snapshot is keyed on it.
        self._version = 0
        self._kernel: PredictionKernel | None = None
        self._net_kernel: PredictionKernel | None = None
        self._net_version = -1
        self._net_predictable: frozenset = frozenset()

    @property
    def workloads(self) -> List[str]:
        """Workloads the model can predict for."""
        return sorted(self._profiles)

    def profile(self, workload: str) -> InterferenceProfile:
        """The profile of ``workload``.

        Raises
        ------
        ModelError
            If the workload was never profiled.
        """
        try:
            return self._profiles[workload]
        except KeyError:
            raise ModelError(
                f"no interference profile for {workload!r}; "
                f"profiled: {', '.join(sorted(self._profiles))}"
            ) from None

    def add_profile(self, profile: InterferenceProfile) -> None:
        """Register (or replace) a workload profile.

        Invalidates the cached :meth:`prediction_kernel` snapshot.
        """
        self._profiles[profile.workload] = profile
        self._version += 1

    def prediction_kernel(self) -> PredictionKernel:
        """The frozen batch-prediction snapshot of this model.

        Rebuilt lazily whenever :meth:`add_profile` has registered or
        replaced a profile since the last build; see
        :mod:`repro.core.kernel` for the bit-identity contract.
        """
        kernel = self._kernel
        if kernel is None or kernel.version != self._version:
            kernel = PredictionKernel(self._profiles, version=self._version)
            self._kernel = kernel
        return kernel

    def _network_predictable(self) -> frozenset:
        """Workloads holding a network matrix (version-cached)."""
        if self._net_version != self._version:
            self._net_predictable = frozenset(
                name
                for name, profile in self._profiles.items()
                if profile.network_matrix is not None
            )
            self._net_kernel = None
            self._net_version = self._version
        return self._net_predictable

    @property
    def has_network(self) -> bool:
        """Whether any profile carries the NETWORK contention domain.

        False for every model built without network profiling; all
        combined-prediction branches gate on it, so such models execute
        exactly the scalar-era code paths.
        """
        return bool(self._network_predictable())

    def network_kernel(self) -> PredictionKernel:
        """The batch-prediction snapshot of the NETWORK domain.

        Built from a *view* of the profiles in which each workload's
        matrix is its network matrix and its bubble score is its
        network score, so the full kernel machinery — and its
        bit-identity contract — applies unchanged to the network
        dimension.  Workloads without a network matrix appear in the
        view only as pressure sources (their compute matrix is a
        placeholder that is never consulted; prediction for them is
        guarded at the model level).

        Every view profile carries the ALL-max heterogeneity policy:
        a collective is gated by its *bottleneck* link (the slowest
        uplink serializes the whole exchange), so the worst link
        pressure anywhere on the span is what the network matrix must
        be read at — see :data:`NETWORK_POLICY`.
        """
        self._network_predictable()
        if self._net_kernel is None or self._net_kernel.version != self._version:
            view = {
                name: InterferenceProfile(
                    workload=profile.workload,
                    matrix=(
                        profile.network_matrix
                        if profile.network_matrix is not None
                        else profile.matrix
                    ),
                    policy_name=NETWORK_POLICY,
                    bubble_score=profile.network_score,
                )
                for name, profile in self._profiles.items()
            }
            self._net_kernel = PredictionKernel(view, version=self._version)
        return self._net_kernel

    # ------------------------------------------------------------------
    # Predictions
    # ------------------------------------------------------------------
    def predict(
        self,
        workload: str,
        interference: Interference,
        *,
        domain: ContentionDomain = ContentionDomain.COMPUTE,
    ) -> float:
        """Normalized time of ``workload`` under ``interference``.

        The single prediction entry point; dispatches on the type of
        ``interference``:

        * a :class:`HomogeneousSetting` or a plain **tuple**
          ``(pressure, count)`` — the homogeneous lookup (``count``
          nodes all interfering at ``pressure``);
        * any other sequence (list, array) — a per-node pressure
          vector, one entry per node the deployment spans, mapped
          through the workload's heterogeneity policy (Figure 5).

        The tuple/list distinction is deliberate: a 2-tuple is always
        the homogeneous pair, a 2-element list is always a 2-node
        vector.

        ``domain`` selects the contention resource: COMPUTE (the
        default, and exactly the scalar-era behaviour) reads the
        propagation matrix over cache/memory-bandwidth settings;
        NETWORK reads the per-link matrix and raises
        :class:`~repro.errors.ModelError` for workloads without a
        network profile.

        >>> model.predict("M.lmps", (5.0, 3))          # homogeneous
        >>> model.predict("M.lmps", [6.0, 3.0, 0, 0])  # heterogeneous
        """
        if domain is not ContentionDomain.COMPUTE:
            domain = ContentionDomain.parse(domain)
        if isinstance(interference, HomogeneousSetting):
            return self._predict_homogeneous(
                workload, interference.pressure, interference.count,
                domain=domain,
            )
        if isinstance(interference, tuple):
            if len(interference) != 2:
                raise ModelError(
                    "a homogeneous interference tuple must be "
                    f"(pressure, count); got {len(interference)} elements"
                )
            pressure, count = interference
            return self._predict_homogeneous(
                workload, float(pressure), float(count), domain=domain
            )
        if isinstance(interference, np.ndarray):
            # Float64 vectors pass through uncopied — the per-element
            # ``float()`` round-trip below is a pure identity for them
            # and a measurable allocation on the heterogeneous hot path.
            if interference.dtype == np.float64 and interference.ndim == 1:
                return self._predict_heterogeneous(
                    workload, interference, domain=domain
                )
            return self._predict_heterogeneous(
                workload, [float(p) for p in interference], domain=domain
            )
        if isinstance(interference, list) or (
            isinstance(interference, Sequence)
            and not isinstance(interference, (str, bytes))
        ):
            return self._predict_heterogeneous(
                workload, [float(p) for p in interference], domain=domain
            )
        raise ModelError(
            "interference must be a (pressure, count) pair or a per-node "
            f"pressure vector; got {type(interference).__name__}"
        )

    def _domain_matrix(
        self, profile: InterferenceProfile, domain: ContentionDomain
    ) -> PropagationMatrix:
        if domain is ContentionDomain.COMPUTE:
            return profile.matrix
        if profile.network_matrix is None:
            raise ModelError(
                f"no network profile for {profile.workload!r}; "
                "build one with build_network_profiles"
            )
        return profile.network_matrix

    def _predict_homogeneous(
        self, workload: str, pressure: float, count: float,
        *, domain: ContentionDomain = ContentionDomain.COMPUTE,
    ) -> float:
        profile = self.profile(workload)
        matrix = self._domain_matrix(profile, domain)
        return matrix.lookup(HomogeneousSetting(pressure, count))

    def _predict_heterogeneous(
        self, workload: str, pressures: Sequence[float],
        *, domain: ContentionDomain = ContentionDomain.COMPUTE,
    ) -> float:
        profile = self.profile(workload)
        matrix = self._domain_matrix(profile, domain)
        if domain is ContentionDomain.COMPUTE:
            policy = profile.policy
        else:
            policy = _NETWORK_POLICY
        setting = policy.convert(pressures)
        scale = matrix.max_count / len(pressures)
        scaled = HomogeneousSetting(setting.pressure, setting.count * scale)
        return matrix.lookup(scaled)

    def predict_homogeneous(
        self, workload: str, pressure: float, count: float
    ) -> float:
        """Normalized time with ``count`` nodes interfering at ``pressure``.

        Delegates to :meth:`predict` with a homogeneous setting.
        """
        return self.predict(workload, HomogeneousSetting(pressure, count))

    def predict_heterogeneous(
        self, workload: str, pressures: Sequence[float]
    ) -> float:
        """Normalized time under a per-node pressure vector.

        Applies the workload's heterogeneity policy and then looks up
        the propagation matrix — exactly Figure 5's procedure.

        The pressure vector has one entry per node the *deployment*
        spans.  The matrix was profiled on a fixed span (all 8 hosts in
        Section 3.1), so when the deployment spans fewer nodes —
        Section 5 runs each application on 4 hosts — the converted
        node count is rescaled to the profiled span: ``k`` interfering
        nodes out of 4 correspond to ``2k`` out of the profiled 8.

        Delegates to :meth:`predict` with the vector form.
        """
        return self.predict(workload, list(pressures))

    def pressure_vector(
        self,
        workload_nodes: Sequence[int],
        co_runners_by_node: Mapping[int, Sequence[str]],
        *,
        domain: ContentionDomain = ContentionDomain.COMPUTE,
    ) -> List[float]:
        """Per-node pressures an application sees from its co-runners.

        Parameters
        ----------
        workload_nodes:
            Nodes the target application spans.
        co_runners_by_node:
            For each node, the workload names of *other* applications
            resident there (one name per resident VM unit; the same
            name may repeat if two units share the node).
        domain:
            COMPUTE combines the co-runners' bubble scores; NETWORK
            combines their network scores into per-node *link*
            pressures.

        Notes
        -----
        Pressures combine using the public scoring rule (one level per
        doubling of misses) without the collision surcharge — the model
        cannot observe the surcharge, which is one of its honest error
        sources.  The combine is memoized per co-runner score tuple on
        the domain's kernel (:meth:`prediction_kernel` or
        :meth:`network_kernel`; bubble scores are frozen profile
        fields, so the memo is exact).
        """
        kernel = (
            self.network_kernel()
            if domain is ContentionDomain.NETWORK
            else self.prediction_kernel()
        )
        return kernel.pressure_vector(workload_nodes, co_runners_by_node)

    def _network_factor(
        self,
        workload: str,
        workload_nodes: Sequence[int],
        co_runners_by_node: Mapping[int, Sequence[str]],
    ) -> Optional[float]:
        """NETWORK-domain slowdown factor, or ``None`` if not applicable.

        ``None`` when the target has no network profile — combined
        predictions then degrade gracefully to compute-only, mirroring
        the scalar era.
        """
        profile = self.profile(workload)
        if profile.network_matrix is None:
            return None
        vector = self.pressure_vector(
            workload_nodes, co_runners_by_node,
            domain=ContentionDomain.NETWORK,
        )
        return self._predict_heterogeneous(
            workload, vector, domain=ContentionDomain.NETWORK
        )

    def predict_under_corunners(
        self,
        workload: str,
        workload_nodes: Sequence[int],
        co_runners_by_node: Mapping[int, Sequence[str]],
    ) -> float:
        """Normalized time of ``workload`` given its co-runners per node.

        When the model carries the NETWORK domain, the prediction is
        the *combined* per-resource estimate: the compute slowdown
        multiplied by the link-contention slowdown (slowdowns on
        independent resources compose multiplicatively, the standard
        independence assumption).  Models without network profiles run
        exactly the scalar-era code path.
        """
        vector = self.pressure_vector(workload_nodes, co_runners_by_node)
        value = self._predict_heterogeneous(workload, vector)
        if self.has_network:
            factor = self._network_factor(
                workload, workload_nodes, co_runners_by_node
            )
            if factor is not None:
                value = value * factor
        return value

    # ------------------------------------------------------------------
    # Batch predictions (the vectorized hot path)
    # ------------------------------------------------------------------
    def _predict_rows(
        self,
        workloads: Sequence[str],
        vectors: Sequence[Sequence[float]],
        *,
        network: bool = False,
    ) -> np.ndarray:
        """Kernel predictions of parallel workload/vector rows.

        Compute predictions by default.  With ``network`` each row's
        NETWORK-domain slowdown factor instead, 1.0 for targets without
        a network profile, so multiplying the factors into compute
        predictions is the combined prediction (``x * 1.0 == x``
        exactly).  On a kernel anomaly the rows replay the scalar path,
        which raises its exception in row order.  With finite profile
        scores a network row can fail only where its compute row
        fails, so callers fold the compute rows first.
        """
        domain = ContentionDomain.COMPUTE
        kernel = self.prediction_kernel()
        factors = None
        if network:
            domain = ContentionDomain.NETWORK
            kernel = self.network_kernel()
            predictable = self._network_predictable()
            rows = [
                i for i, workload in enumerate(workloads)
                if workload in predictable
            ]
            factors = np.ones(len(workloads), dtype=float)
            workloads = [workloads[i] for i in rows]
            vectors = [vectors[i] for i in rows]
        values = kernel.predict_vectors(workloads, vectors)
        if values is None:
            values = np.array(
                [
                    self._predict_heterogeneous(workload, vector, domain=domain)
                    for workload, vector in zip(workloads, vectors)
                ],
                dtype=float,
            )
        if factors is None:
            return values
        factors[rows] = values
        return factors

    def predict_placement_batch(
        self, placement: "Placement"  # noqa: F821
    ) -> Dict[str, float]:
        """All of a placement's instance predictions in one batch.

        Bit-identical to
        :func:`repro.placement.objectives.predict_placement_scalar`,
        with the per-instance table in the same (instance) order.
        """
        triples = self.prediction_kernel().placement_vectors(placement)
        _count_batch(len(triples))
        workloads = [workload for _, workload, _ in triples]
        values = self._predict_rows(
            workloads, [vector for _, _, vector in triples]
        )
        if self.has_network:
            # Same placement, network view: vectors combine co-runner
            # *network* scores, in the same instance order.
            net_triples = self.network_kernel().placement_vectors(placement)
            values = values * self._predict_rows(
                workloads, [vector for _, _, vector in net_triples],
                network=True,
            )
        return dict(zip([key for key, _, _ in triples], values.tolist()))

    def predict_placements_batch(
        self,
        base: Optional["Placement"],  # noqa: F821
        job: "InstanceSpec",  # noqa: F821
        node_sets: Sequence[Sequence[int]],
        *,
        degraded: Collection[str] = frozenset(),
    ) -> np.ndarray:
        """Score an admission wave: ``base`` extended by ``job`` per node set.

        Returns a ``(len(node_sets), num_instances)`` array whose row
        ``c`` holds the predictions of the placement with ``job`` on
        ``node_sets[c]``, in instance order with the job last — each
        value bit-identical to the scalar path on that placement.  The
        wave is scored in factored form
        (:meth:`~repro.core.kernel.PredictionKernel.admission_wave`):
        base rows once, then per candidate only the rows the job
        changes.  Node sets must be valid extensions of ``base``.
        Workloads in ``degraded`` are raised to their conservative
        ALL-max prediction where that is worse
        (:func:`repro.faults.degradation.conservative_wave`).
        """
        wave, predictions = self._wave_predictions(base, job, node_sets)
        if degraded:
            conservative_wave(self, wave, predictions, degraded)
        return predictions

    def _wave_predictions(
        self,
        base: Optional["Placement"],  # noqa: F821
        job: "InstanceSpec",  # noqa: F821
        node_sets: Sequence[Sequence[int]],
    ) -> Tuple[AdmissionWave, np.ndarray]:
        """One wave's factored rows and its combined prediction matrix.

        A wave counts as one batch of ``candidates x instances``
        requests, the work it stands for.
        """
        wave = self.prediction_kernel().admission_wave(base, job, node_sets)
        if not wave.num_candidates:
            return wave, wave.scatter(np.empty(0, dtype=float))
        _count_batch(wave.num_candidates * (wave.num_base + 1))
        predictions = wave.scatter(
            self._predict_rows(wave.workloads, wave.vectors)
        )
        if self.has_network:
            # The network wave has the same cells over its own rows.
            net_wave = self.network_kernel().admission_wave(
                base, job, node_sets
            )
            predictions = predictions * net_wave.scatter(
                self._predict_rows(
                    net_wave.workloads, net_wave.vectors, network=True
                )
            )
        return wave, predictions

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable representation of all profiles."""
        return {name: prof.to_dict() for name, prof in self._profiles.items()}

    @classmethod
    def from_dict(cls, payload: dict) -> "InterferenceModel":
        """Inverse of :meth:`to_dict`."""
        return cls(
            {name: InterferenceProfile.from_dict(p) for name, p in payload.items()}
        )
