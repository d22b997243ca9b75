"""Persistent measurement cache.

Every measurement the :class:`~repro.sim.runner.ClusterRunner` performs
is a deterministic function of its setting label and the runner's base
seed — re-running a benchmark re-simulates exactly the same runs.  The
cache makes that observation operational: results are stored on disk
keyed by the same stable label that seeds the simulation, so a repeated
benchmark session *replays* recorded times instead of re-simulating
them, the way a real testbed would re-read its run logs.

The store is a single JSON file, loaded eagerly and rewritten
atomically on :meth:`flush` (or on every put with ``autosave``).  Keys
embed a *fingerprint* of the measurement environment (cluster shape,
base seed, noise profile, and any active fault plan) so one file can
safely serve several environments — a cache entry recorded on the
quiet private testbed is never replayed for the noisy EC2 environment.

A corrupt backing file (e.g. a torn write from a killed process) is
**quarantined**, not fatal: the bytes are moved aside to
``<path>.corrupt`` for inspection, a one-line warning is printed, and
the cache starts empty — measurements re-simulate deterministically,
so nothing is lost but time.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.obs import console

CacheValue = Union[float, Dict[str, float]]


def cache_key(fingerprint: str, *labels: object) -> str:
    """Canonical string key for a measurement label tuple."""
    return "|".join([fingerprint] + [str(label) for label in labels])


class MeasurementCache:
    """Disk-backed store of measurement results keyed by stable labels.

    Parameters
    ----------
    path:
        JSON file backing the cache; ``None`` keeps the cache purely
        in memory.
    autosave:
        Rewrite the file after every new entry.  Convenient for
        interactive use; batch users should prefer explicit
        :meth:`flush` calls.
    """

    def __init__(
        self, path: Optional[Union[str, Path]] = None, *, autosave: bool = False
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.autosave = autosave
        self.hits = 0
        self.misses = 0
        self._entries: Dict[str, CacheValue] = {}
        self._fresh: Dict[str, CacheValue] = {}
        if self.path is not None and self.path.exists():
            try:
                self._entries = json.loads(self.path.read_text())
            except json.JSONDecodeError as exc:
                # Quarantine instead of crashing: the bytes stay
                # available at <path>.corrupt for manual salvage, the
                # next flush cannot overwrite them, and every
                # measurement re-derives deterministically anyway.
                quarantine = self.path.with_name(self.path.name + ".corrupt")
                os.replace(self.path, quarantine)
                console.info(
                    f"warning: measurement cache {self.path} is not valid "
                    f"JSON ({exc}); quarantined to {quarantine}, starting "
                    "with an empty cache"
                )
                self._entries = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[CacheValue]:
        """Recorded value for ``key``, or ``None`` on a miss."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: str, value: CacheValue) -> None:
        """Record a measurement result."""
        if key in self._entries:
            return
        self._entries[key] = value
        self._fresh[key] = value
        if self.autosave:
            self.flush()

    def fresh_entries(self) -> Dict[str, CacheValue]:
        """Entries added since construction or the last flush."""
        return dict(self._fresh)

    def flush(self) -> None:
        """Atomically rewrite the backing file (no-op for memory caches)."""
        if self.path is None or not self._fresh:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Merge with whatever another process flushed meanwhile.
        if self.path.exists():
            try:
                on_disk = json.loads(self.path.read_text())
            except (OSError, json.JSONDecodeError):
                on_disk = {}
            for key, value in on_disk.items():
                self._entries.setdefault(key, value)
        fd, tmp = tempfile.mkstemp(
            dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self._entries, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self._fresh.clear()

    # ------------------------------------------------------------------
    def __getstate__(self) -> Tuple[Dict[str, CacheValue]]:
        # Pickling ships entries only: a fanned-out cell's runner must
        # never write the parent's file.
        return (dict(self._entries),)

    def __setstate__(self, state: Tuple[Dict[str, CacheValue]]) -> None:
        self.path = None
        self.autosave = False
        self.hits = 0
        self.misses = 0
        self._entries = state[0]
        self._fresh = {}
