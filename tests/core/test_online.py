"""Tests for the online model refinement extension."""

import numpy as np
import pytest

from repro.core.curves import PropagationMatrix
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.core.online import OnlineModel
from repro.errors import ModelError


def base_model():
    matrix = PropagationMatrix(
        [4.0, 8.0],
        [0.0, 1.0, 2.0],
        np.array([[1.0, 1.2, 1.4], [1.0, 1.5, 2.0]]),
    )
    profile = InterferenceProfile(
        workload="app", matrix=matrix, policy_name="N MAX", bubble_score=3.0
    )
    return InterferenceModel({"app": profile})


class TestPriorBehaviour:
    def test_unobserved_matches_static(self):
        online = OnlineModel(base_model())
        static = base_model()
        assert online.predict_homogeneous("app", 8.0, 2.0) == (
            static.predict_homogeneous("app", 8.0, 2.0)
        )

    def test_solo_prediction_never_distorted(self):
        online = OnlineModel(base_model(), learning_rate=1.0)
        for _ in range(5):
            online.observe("app", predicted=1.5, measured=2.0)
        assert online.predict_homogeneous("app", 0.0, 0.0) == 1.0

    def test_delegations(self):
        online = OnlineModel(base_model())
        assert online.workloads == ["app"]
        assert online.profile("app").bubble_score == 3.0
        assert online.pressure_vector([0], {0: ["app"]}) == [3.0]


class TestLearning:
    def test_underprediction_raises_future_predictions(self):
        online = OnlineModel(base_model(), learning_rate=1.0, max_correction=0.5)
        before = online.predict_homogeneous("app", 8.0, 2.0)
        online.observe("app", predicted=before, measured=before * 1.2)
        after = online.predict_homogeneous("app", 8.0, 2.0)
        assert after > before

    def test_overprediction_lowers_future_predictions(self):
        online = OnlineModel(base_model(), learning_rate=1.0, max_correction=0.5)
        before = online.predict_homogeneous("app", 8.0, 2.0)
        online.observe("app", predicted=before, measured=1.0 + (before - 1.0) * 0.6)
        assert online.predict_homogeneous("app", 8.0, 2.0) < before

    def test_correction_bounded(self):
        online = OnlineModel(base_model(), learning_rate=1.0, max_correction=0.2)
        for _ in range(10):
            online.observe("app", predicted=1.1, measured=9.0)
        assert online.correction("app").factor <= 1.2 + 1e-9

    def test_converges_to_systematic_bias(self):
        # Truth is consistently 1.25x the static interference part.
        online = OnlineModel(base_model(), learning_rate=0.5, max_correction=0.5)
        for _ in range(25):
            predicted = online.predict_homogeneous("app", 8.0, 2.0)
            measured = 1.0 + (2.0 - 1.0) * 1.25  # static part is 1.0
            online.observe("app", predicted, measured)
        final = online.predict_homogeneous("app", 8.0, 2.0)
        assert final == pytest.approx(measured, rel=0.03)

    def test_observation_bookkeeping(self):
        online = OnlineModel(base_model())
        online.observe("app", 1.5, 1.8)
        state = online.correction("app")
        assert state.observations == 1
        assert state.last_error_percent == pytest.approx(100 * 0.3 / 1.8)

    def test_observe_placement(self):
        online = OnlineModel(base_model())
        online.observe_placement(
            {"app#0": 1.5}, {"app#0": 1.8}, {"app#0": "app"}
        )
        assert online.correction("app").observations == 1

    def test_staleness_report(self):
        online = OnlineModel(base_model())
        online.observe("app", 1.5, 1.8)
        report = online.staleness_report()
        assert report[0][0] == "app"
        assert report[0][1] == 1

    def test_learned_state_does_not_grow_with_observations(self):
        online = OnlineModel(base_model())
        online.observe("app", 1.5, 1.8)
        after_one = online.state_dict()["app"]
        for _ in range(49):
            online.observe("app", 1.5, 1.8)
        after_fifty = online.state_dict()["app"]
        assert after_fifty["observations"] == 50
        assert after_fifty.keys() == after_one.keys()
        assert not any(isinstance(v, list) for v in after_fifty.values())


class TestValidation:
    def test_bad_learning_rate(self):
        with pytest.raises(ModelError):
            OnlineModel(base_model(), learning_rate=0.0)

    def test_bad_correction_bound(self):
        with pytest.raises(ModelError):
            OnlineModel(base_model(), max_correction=1.0)

    def test_bad_observation(self):
        online = OnlineModel(base_model())
        with pytest.raises(ModelError):
            online.observe("app", 0.0, 1.0)
