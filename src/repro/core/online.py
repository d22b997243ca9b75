"""Online model refinement (the paper's stated future work).

Section 8 closes with: "Extending it to an online mechanism supporting
co-location of multiple applications is our future work", pointing at
Bubble-Flux (Yang et al., ISCA'13).  This module implements that
extension on top of the static model:

* :class:`OnlineModel` wraps a profiled
  :class:`~repro.core.model.InterferenceModel` and *refines* it from
  production observations: whenever a placement's measured normalized
  time is reported, the wrapper updates a per-workload multiplicative
  correction with an exponential moving average, so systematic bias
  (phase changes, mis-measured bubble scores, environment drift) decays
  out of future predictions without re-running the profiling campaign.
* Corrections are bounded so a single outlier observation cannot
  poison the model, and per-workload observation counts give operators
  a staleness signal.

The refinement deliberately keeps the published model as its prior: an
unobserved workload predicts exactly like the static model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.cluster.contention import ContentionDomain
from repro.core.kernel import PredictionKernel
from repro.core.model import InterferenceModel
from repro.errors import ModelError
from repro.faults.degradation import conservative_wave


@dataclass
class CorrectionState:
    """Learned multiplicative correction for one workload."""

    factor: float = 1.0
    observations: int = 0
    last_error_percent: float = 0.0


class OnlineModel:
    """Static interference model + online bias correction.

    Parameters
    ----------
    base:
        The profiled model used as the prior.
    learning_rate:
        EMA weight of each new observation, in (0, 1].
    max_correction:
        Bound on the multiplicative correction (both directions), e.g.
        0.3 keeps corrections within [0.7, 1.3] of the static model.
    """

    def __init__(
        self,
        base: InterferenceModel,
        *,
        learning_rate: float = 0.25,
        max_correction: float = 0.3,
    ) -> None:
        if not 0.0 < learning_rate <= 1.0:
            raise ModelError("learning_rate must be in (0, 1]")
        if not 0.0 <= max_correction < 1.0:
            raise ModelError("max_correction must be in [0, 1)")
        self.base = base
        self.learning_rate = learning_rate
        self.max_correction = max_correction
        self._corrections: Dict[str, CorrectionState] = {}

    # ------------------------------------------------------------------
    def correction(self, workload: str) -> CorrectionState:
        """The current correction state for ``workload``."""
        return self._corrections.setdefault(workload, CorrectionState())

    def _apply(self, workload: str, predicted: float) -> float:
        factor = self.correction(workload).factor
        # Corrections scale the *interference part* of the prediction,
        # so a solo run (1.0) is never distorted.
        return 1.0 + (predicted - 1.0) * factor

    # ------------------------------------------------------------------
    # Prediction interface (mirrors InterferenceModel)
    # ------------------------------------------------------------------
    @property
    def workloads(self) -> List[str]:
        """Workloads the underlying model can predict for."""
        return self.base.workloads

    def profile(self, workload: str):
        """The static profile (delegated)."""
        return self.base.profile(workload)

    @property
    def has_network(self) -> bool:
        """Whether the base model carries the NETWORK domain (delegated)."""
        return self.base.has_network

    def predict(
        self,
        workload: str,
        interference,
        *,
        domain: ContentionDomain = ContentionDomain.COMPUTE,
    ) -> float:
        """Corrected :meth:`InterferenceModel.predict` (any domain)."""
        return self._apply(
            workload, self.base.predict(workload, interference, domain=domain)
        )

    def pressure_vector(
        self,
        workload_nodes: Sequence[int],
        co_runners_by_node: Mapping[int, Sequence[str]],
        *,
        domain: ContentionDomain = ContentionDomain.COMPUTE,
    ) -> List[float]:
        """Per-node pressures (delegated to the static model)."""
        return self.base.pressure_vector(
            workload_nodes, co_runners_by_node, domain=domain
        )

    def predict_homogeneous(
        self, workload: str, pressure: float, count: float
    ) -> float:
        """Corrected homogeneous prediction."""
        return self._apply(
            workload, self.base.predict_homogeneous(workload, pressure, count)
        )

    def predict_heterogeneous(
        self, workload: str, pressures: Sequence[float]
    ) -> float:
        """Corrected heterogeneous prediction."""
        return self._apply(
            workload, self.base.predict_heterogeneous(workload, pressures)
        )

    def predict_under_corunners(
        self,
        workload: str,
        workload_nodes: Sequence[int],
        co_runners_by_node: Mapping[int, Sequence[str]],
    ) -> float:
        """Corrected placement-style prediction."""
        return self._apply(
            workload,
            self.base.predict_under_corunners(
                workload, workload_nodes, co_runners_by_node
            ),
        )

    # ------------------------------------------------------------------
    # Batch predictions.  Placements and admission waves read the base
    # model's kernel and correct its rows; predict_batch and
    # predict_corunners_batch correct scalar predictions.
    # ------------------------------------------------------------------
    def prediction_kernel(self) -> PredictionKernel:
        """The static base model's frozen batch snapshot (delegated).

        Corrections are applied on top of the kernel's raw
        predictions, so the snapshot never needs rebuilding when the
        online state learns.
        """
        return self.base.prediction_kernel()

    def _apply_batch(
        self, workloads: Sequence[str], values: np.ndarray
    ) -> np.ndarray:
        """:meth:`_apply` over ``values``, whose last axis runs over
        ``workloads`` (one :meth:`correction` call per workload)."""
        factors = np.array(
            [self.correction(workload).factor for workload in workloads],
            dtype=float,
        )
        # Elementwise replay of :meth:`_apply` — same operation order.
        return 1.0 + (values - 1.0) * factors

    def predict_batch(
        self,
        requests: Sequence[Tuple[str, object]],
        *,
        domain: ContentionDomain = ContentionDomain.COMPUTE,
    ) -> np.ndarray:
        """Corrected :meth:`predict` over ``(workload, interference)`` pairs.

        No workload calls it.  It stays only because the reference-day
        benchmark's ``core.predict_batch`` layer (``daybench/layers.py``)
        patches it by name; once that layer stops naming it, delete it.
        Every pair is predicted before any correction is read, so a bad
        pair raises the scalar error and creates no correction state.
        """
        workloads = [workload for workload, _ in requests]
        values = np.array(
            [
                self.base.predict(workload, interference, domain=domain)
                for workload, interference in requests
            ],
            dtype=float,
        )
        return self._apply_batch(workloads, values)

    def predict_corunners_batch(
        self,
        items: Sequence[Tuple[str, Sequence[int], Mapping[int, Sequence[str]]]],
    ) -> np.ndarray:
        """Corrected :meth:`predict_under_corunners` over many items.

        Each item is ``(workload, workload_nodes, co_runners_by_node)``.
        Kept for the same reason as :meth:`predict_batch`, and predicts
        every item before any correction is read in the same way.
        """
        values = np.array(
            [self.base.predict_under_corunners(*item) for item in items],
            dtype=float,
        )
        return self._apply_batch([workload for workload, _, _ in items], values)

    def predict_placement_batch(self, placement) -> Dict[str, float]:
        """Corrected :meth:`InterferenceModel.predict_placement_batch`."""
        raw = self.base.predict_placement_batch(placement)
        values = self._apply_batch(
            [spec.workload for spec in placement.instances],
            np.fromiter(raw.values(), dtype=float, count=len(raw)),
        )
        return dict(zip(raw, values.tolist()))

    def predict_placements_batch(
        self,
        base,
        job,
        node_sets: Sequence[Sequence[int]],
        *,
        degraded: Collection[str] = frozenset(),
    ) -> np.ndarray:
        """Corrected :meth:`InterferenceModel.predict_placements_batch`.

        Corrections apply per column (the base instances, then the
        job) before the degraded-workload override compares against
        them.
        """
        wave, predictions = self.base._wave_predictions(base, job, node_sets)
        if wave.num_candidates:
            instances = base.instances if base is not None else ()
            predictions = self._apply_batch(
                [spec.workload for spec in (*instances, job)], predictions
            )
        if degraded:
            conservative_wave(self, wave, predictions, degraded)
        return predictions

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def observe(
        self, workload: str, predicted: float, measured: float
    ) -> CorrectionState:
        """Fold one production observation into the correction.

        Parameters
        ----------
        workload:
            The observed application.
        predicted:
            What this model predicted for the run (normalized time).
        measured:
            The normalized time actually measured.

        Returns
        -------
        CorrectionState
            The updated state (also retrievable via :meth:`correction`).
        """
        if predicted <= 0 or measured <= 0:
            raise ModelError("predicted and measured times must be positive")
        state = self.correction(workload)
        predicted_part = max(predicted - 1.0, 1e-6)
        measured_part = max(measured - 1.0, 0.0)
        # The ratio the correction should converge to, expressed
        # against the *static* prediction part.
        current_static_part = predicted_part / state.factor
        target = measured_part / max(current_static_part, 1e-6)
        target = min(max(target, 1.0 - self.max_correction),
                     1.0 + self.max_correction)
        state.factor += self.learning_rate * (target - state.factor)
        state.observations += 1
        state.last_error_percent = abs(predicted - measured) / measured * 100.0
        return state

    def observe_placement(
        self,
        placement_predictions: Mapping[str, float],
        measured_times: Mapping[str, float],
        workload_of: Mapping[str, str],
    ) -> None:
        """Fold a whole placement's measurements into the corrections.

        Parameters
        ----------
        placement_predictions:
            Per-instance predicted normalized times.
        measured_times:
            Per-instance measured normalized times.
        workload_of:
            Instance key -> workload abbreviation.
        """
        for key, predicted in placement_predictions.items():
            if key in measured_times:
                self.observe(workload_of[key], predicted, measured_times[key])

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Dict[str, object]]:
        """The learned state (corrections only) as plain JSON-able data.

        The static base model is *not* part of the state: it derives
        deterministically from profiling, so checkpoints stay small and
        a resumed service rebuilds it from the same seed instead.
        """
        return {
            workload: {
                "factor": state.factor,
                "observations": state.observations,
                "last_error_percent": state.last_error_percent,
            }
            for workload, state in sorted(self._corrections.items())
        }

    def load_state(self, state: Mapping[str, Mapping[str, object]]) -> None:
        """Restore corrections captured by :meth:`state_dict`."""
        self._corrections = {}
        for workload, entry in state.items():
            try:
                self._corrections[workload] = CorrectionState(
                    factor=float(entry["factor"]),
                    observations=int(entry["observations"]),
                    last_error_percent=float(entry["last_error_percent"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ModelError(
                    f"malformed correction state for {workload!r}"
                ) from exc

    def staleness_report(self) -> List[tuple]:
        """(workload, observations, factor, last error %) per workload."""
        return [
            (workload, state.observations, state.factor,
             state.last_error_percent)
            for workload, state in sorted(self._corrections.items())
        ]
