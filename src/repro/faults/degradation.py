"""Graceful degradation: conservative predictions for faulted workloads.

When profiling a workload kept faulting (a probe exhausted its retry
budget, so part of its propagation matrix rests on a fallback rather
than a measurement), the admission controller must not admit on the
strength of that profile alone.  The fallback here is the paper's most
pessimistic heterogeneity mapping: **ALL max** — the worst pressure
anywhere is assumed to reach every node — applied to the workload's own
propagation matrix.  Over-predicting slowdown can only make admission
*more* conservative, never admit a tenant into a violated bound.
"""

from __future__ import annotations

from typing import Collection, Mapping, Sequence

import numpy as np

from repro.obs import recorder as _obs


def conservative_prediction(
    model,
    workload: str,
    workload_nodes: Sequence[int],
    co_runners_by_node: Mapping[int, Sequence[str]],
) -> float:
    """ALL-max normalized-time prediction for a degraded workload.

    Mirrors :meth:`repro.core.model.InterferenceModel.predict_under_corunners`
    but forces the ALL-max mapping policy instead of the profile's
    selected one (including the profiled-span rescaling of the
    converted node count).
    """
    vector = model.pressure_vector(workload_nodes, co_runners_by_node)
    return _all_max(model.profile(workload), vector)


def _all_max(profile, vector: Sequence[float]) -> float:
    # Imported lazily: repro.core pulls in the profiling stack, which
    # imports the runner, which imports this package — a module-level
    # import here would close that cycle.
    from repro.core.curves import HomogeneousSetting
    from repro.core.policies import AllMaxPolicy

    setting = AllMaxPolicy().convert(vector)
    scale = profile.matrix.max_count / len(vector)
    return profile.matrix.lookup(
        HomogeneousSetting(setting.pressure, setting.count * scale)
    )


def conservative_wave(
    model, wave, predictions: np.ndarray, degraded: Collection[str]
) -> None:
    """Apply the degraded-workload override to a scored admission wave.

    ``wave`` is a :class:`~repro.core.kernel.AdmissionWave` and
    ``predictions`` its ``(candidates, instances)`` matrix, raised in
    place.  Every row of a degraded workload gets its
    :func:`conservative_prediction` — computed once per distinct row,
    bit-identical to calling it on each candidate placement — and a
    cell is raised to it wherever it is worse than the model's own
    estimate (degradation only ever raises a prediction).  Each raised
    cell counts one ``fault.degraded_prediction``.
    """
    from repro.core.policies import AllMaxPolicy

    rows = [
        i for i, workload in enumerate(wave.workloads) if workload in degraded
    ]
    if not rows:
        return
    workloads = [wave.workloads[i] for i in rows]
    vectors = [wave.vectors[i] for i in rows]
    values = model.prediction_kernel().predict_vectors(
        workloads, vectors, policy_override=AllMaxPolicy()
    )
    if values is None:
        values = [
            _all_max(model.profile(workload), vector)
            for workload, vector in zip(workloads, vectors)
        ]
    per_row = np.full(len(wave.workloads), -np.inf)
    per_row[rows] = values
    conservative = wave.scatter(per_row)
    raised = conservative > predictions
    count = int(raised.sum())
    if count:
        predictions[raised] = conservative[raised]
        _obs.RECORDER.count("fault.degraded_prediction", count)


def supports_degradation(model) -> bool:
    """Whether ``model`` exposes what :func:`conservative_prediction` needs."""
    return hasattr(model, "profile") and hasattr(model, "pressure_vector")
