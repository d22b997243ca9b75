"""Small internal helpers shared across subpackages."""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    The temporary file is fsync'd before the rename, so a crash at any
    point leaves either the complete old contents or the complete new
    contents — never a torn file.  Used by every artifact writer whose
    output something else (CI byte-comparison, crash recovery) re-reads.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


def round_floats(value: object) -> object:
    """Round floats (recursively) so serialization is byte-stable.

    Dict keys become strings and tuples become lists, as in JSON.
    Shared by the event log and the trace exporters, whose bytes are
    pinned.
    """
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {str(k): round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(v) for v in value]
    return value


def make_rng(seed: object) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts ``None`` (non-deterministic), an integer seed, an existing
    generator (returned unchanged), or a :class:`numpy.random.SeedSequence`.
    Centralizing this keeps every stochastic component of the library
    seedable through one conventional entry point.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def child_rng(rng: np.random.Generator, *labels: object) -> np.random.Generator:
    """Derive a reproducible child generator from ``rng`` and labels.

    The child stream is a deterministic function of the parent stream
    state and the labels — and only of those: the label mix uses
    :func:`stable_seed` rather than :func:`hash`, so identical runs in
    different processes (hash randomization) observe identical noise.
    """
    seed = int(rng.integers(0, 2**32)) ^ stable_seed(*labels)
    return np.random.default_rng(seed)


def stable_seed(*labels: object) -> int:
    """Map a tuple of labels to a stable 32-bit seed.

    Unlike :func:`hash`, the result is stable across interpreter runs
    (``PYTHONHASHSEED`` does not affect it), which matters because the
    measurement oracle keys simulation seeds off workload names.
    """
    acc = 2166136261
    for label in labels:
        for byte in str(label).encode("utf-8"):
            acc ^= byte
            acc = (acc * 16777619) % (2**32)
        acc ^= 0xABCD
        acc = (acc * 16777619) % (2**32)
    return acc


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean of a non-empty iterable of floats."""
    items = list(values)
    if not items:
        raise ValueError("mean() of empty sequence")
    return float(sum(items)) / len(items)
