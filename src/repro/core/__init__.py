"""The paper's contribution: the distributed-interference model."""

from repro.core.builder import (
    MATRIX_PROFILERS,
    ModelBuildReport,
    build_batch_profiles,
    build_model,
    build_network_profiles,
    default_counts,
    default_pressures,
)
from repro.core.curves import HomogeneousSetting, PropagationMatrix
from repro.core.kernel import PredictionKernel
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.core.multiway import (
    MultiwayPredictor,
    combined_score,
    relaxed_cluster_spec,
)
from repro.core.naive import NaiveProportionalModel
from repro.core.online import CorrectionState, OnlineModel
from repro.core.policies import (
    AllMaxPolicy,
    HeterogeneityPolicy,
    InterpolatePolicy,
    NMaxPolicy,
    NPlusOneMaxPolicy,
    POLICY_CLASSES,
    all_policies,
    get_policy,
)
from repro.core.profile_store import load_model, save_model
from repro.core.scoring import BubbleCalibration, BubbleScoreMeter, calibrate_probe

__all__ = [
    "AllMaxPolicy",
    "BubbleCalibration",
    "BubbleScoreMeter",
    "HeterogeneityPolicy",
    "HomogeneousSetting",
    "InterferenceModel",
    "InterferenceProfile",
    "InterpolatePolicy",
    "MATRIX_PROFILERS",
    "ModelBuildReport",
    "MultiwayPredictor",
    "NMaxPolicy",
    "NPlusOneMaxPolicy",
    "NaiveProportionalModel",
    "OnlineModel",
    "CorrectionState",
    "POLICY_CLASSES",
    "PredictionKernel",
    "PropagationMatrix",
    "all_policies",
    "build_batch_profiles",
    "build_model",
    "build_network_profiles",
    "calibrate_probe",
    "combined_score",
    "default_counts",
    "default_pressures",
    "get_policy",
    "load_model",
    "relaxed_cluster_spec",
    "save_model",
]
