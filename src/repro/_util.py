"""Small internal helpers shared across subpackages."""

from __future__ import annotations

import os
from typing import Iterable, List, Sequence, Tuple

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


#: Raw 64-bit words a :class:`DrawStream` fetches per refill.
_STREAM_BLOCK = 256


class DrawStream:
    """NumPy's PCG64 draws, bit for bit, served from bulk raw words.

    ``integers``, ``pair`` (``choice(n, 2, replace=False)``) and
    ``random`` replay NumPy's, and ``proposal`` replays a ``pair`` and
    two ``integers``; on exit, an exception included, the generator is
    left exactly as those NumPy calls would leave it.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._bitgen = bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(f"DrawStream needs PCG64, not {type(bitgen).__name__}")
        self._start = bitgen.state
        self._has_half = bool(self._start["has_uint32"])
        self._half = self._start["uinteger"]
        self._words: List[int] = []  # reversed: pop() is the next word
        self._fetched = 0

    def __enter__(self) -> "DrawStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._bitgen.state = self._start  # rewind, then advance by use
        state = self._bitgen.advance(self._fetched - len(self._words)).state
        state.update(has_uint32=int(self._has_half), uinteger=self._half)
        self._bitgen.state = state

    def _word(self) -> int:
        if not self._words:
            self._words = self._bitgen.random_raw(_STREAM_BLOCK).tolist()[::-1]
            self._fetched += _STREAM_BLOCK
        return self._words.pop()

    def _uint32(self) -> int:
        if self._has_half:
            self._has_half = False
            return self._half
        word = self._word()
        self._has_half, self._half = True, word >> 32
        return word & 0xFFFFFFFF

    def integers(self, k: int) -> int:
        """Uniform on ``[0, k)`` (Lemire's method); k = 1 draws nothing."""
        if not 1 <= k <= 0x100000000:
            raise ValueError(f"integers() needs 1 <= k <= 2**32, got {k}")
        if k == 1:
            return 0
        m = self._uint32() * k
        if m & 0xFFFFFFFF < k:
            threshold = (0xFFFFFFFF - (k - 1)) % k
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * k
        return m >> 32

    def pair(self, n: int) -> Tuple[int, int]:
        """Two distinct indices below ``n``: Floyd's draw, then a shuffle."""
        first, second = self.integers(n - 1), self.integers(n)
        second = n - 1 if second == first else second
        return (first, second) if self.integers(2) else (second, first)

    def proposal(self, units: Sequence[int]) -> Tuple[int, int, int, int]:
        """A unit swap's draws: ``a, b = pair(len(units))``, then
        ``integers(units[a])`` and ``integers(units[b])``."""
        a, b = self.pair(len(units))
        return a, b, self.integers(units[a]), self.integers(units[b])

    def random(self) -> float:
        """Uniform on ``[0, 1)`` from a fresh word; a buffered half stays."""
        return (self._word() >> 11) * (1.0 / 9007199254740992.0)


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
