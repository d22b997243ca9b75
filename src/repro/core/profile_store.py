"""Persistence for interference models.

Profiling is the expensive step (hours of real cluster time in the
paper; seconds of simulation here), so profiled models can be saved to
JSON and reloaded — the paper's "profile once per application binary
and system configuration" workflow (Section 4.4).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.core.model import InterferenceModel
from repro.errors import ModelError

_FORMAT_VERSION = 1


def save_model(model: InterferenceModel, path: Union[str, Path]) -> None:
    """Write a model's profiles to ``path`` as JSON."""
    payload = {"version": _FORMAT_VERSION, "profiles": model.to_dict()}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_model(path: Union[str, Path]) -> InterferenceModel:
    """Load a model previously written by :func:`save_model`.

    Raises
    ------
    ModelError
        If the file is not a recognized profile store.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelError(f"cannot read profile store {path}: {exc}") from exc
    if not isinstance(payload, dict) or "profiles" not in payload:
        raise ModelError(f"{path} is not a profile store")
    version = payload.get("version")
    if version != _FORMAT_VERSION:
        raise ModelError(
            f"profile store version {version!r} unsupported "
            f"(expected {_FORMAT_VERSION})"
        )
    try:
        return InterferenceModel.from_dict(payload["profiles"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ModelError(f"malformed profile store {path}: {exc!r}") from exc
