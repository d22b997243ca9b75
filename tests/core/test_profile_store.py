"""Tests for model persistence."""

import json

import numpy as np
import pytest

from repro.core.curves import PropagationMatrix
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.core.profile_store import load_model, save_model
from repro.errors import ModelError


def tiny_model():
    matrix = PropagationMatrix(
        [4.0, 8.0], [0.0, 1.0], np.array([[1.0, 1.2], [1.0, 1.5]])
    )
    profile = InterferenceProfile(
        workload="app", matrix=matrix, policy_name="N MAX", bubble_score=2.5
    )
    return InterferenceModel({"app": profile})


class TestProfileStore:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(tiny_model(), path)
        loaded = load_model(path)
        assert loaded.workloads == ["app"]
        assert loaded.profile("app").bubble_score == 2.5
        assert loaded.predict_homogeneous("app", 8.0, 1.0) == pytest.approx(1.5)

    def test_file_is_json(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(tiny_model(), path)
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        assert "app" in payload["profiles"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelError, match="cannot read"):
            load_model(tmp_path / "absent.json")

    def test_not_a_store(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"something": "else"}')
        with pytest.raises(ModelError, match="not a profile store"):
            load_model(path)

    @pytest.mark.parametrize("profiles", [{"M.lmps": {}}, []],
                             ids=["profile-without-keys", "list"])
    def test_malformed_profiles(self, tmp_path, profiles):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"version": 1, "profiles": profiles}))
        with pytest.raises(ModelError, match="malformed profile") as error:
            load_model(path)
        assert str(path) in str(error.value)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text('{"version": 99, "profiles": {}}')
        with pytest.raises(ModelError, match="version"):
            load_model(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ModelError):
            load_model(path)
