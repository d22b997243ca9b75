"""Per-layer wall-time attribution from the benchmark's own files.

:func:`traced` installs a timing wrapper around each layer's public
entry points (class attributes and module-level names, patched where
the callers look them up) and removes every wrapper when the block
exits, so ``src/`` is never edited and the program's own ``repro.obs``
recorder stays off.

A :class:`Tracer` keeps one stack of open calls.  A layer's *inclusive*
time counts only its outermost calls (a layer re-entered from inside
itself is not counted twice); its *self* time is the inclusive time
minus the time spent in nested wrapped calls of any layer, so the self
times of all layers never add up to more than the wall time they ran
in.

:func:`ticking` wraps the same entry points far more cheaply: each call
only stamps the clock as it enters and leaves.  A day's stamps cut its
wall time into thousands of short pieces that are the same on every
replay at one seed (the calls are deterministic).
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class LayerStats:
    """One layer's accumulated timings and work counts."""

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    #: Wall seconds of each outermost call, in call order.
    durations: List[float] = field(default_factory=list)
    #: Layer-specific work counts (``rows``, ``candidates``, ...).
    extras: Dict[str, float] = field(default_factory=dict)

    def add(self, key: str, amount: float) -> None:
        self.extras[key] = self.extras.get(key, 0) + amount


class Tracer:
    """Stack-based inclusive/self timing of nested layer calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: Dict[str, LayerStats] = {}
        #: Open calls: ``[layer, start, seconds spent in nested calls]``.
        self._stack: List[list] = []
        self._depth: Dict[str, int] = {}

    def stats(self, layer: str) -> LayerStats:
        return self.layers.setdefault(layer, LayerStats())

    def enter(self, layer: str) -> None:
        self._depth[layer] = self._depth.get(layer, 0) + 1
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost open call; returns its wall seconds."""
        layer, start, nested = self._stack.pop()
        elapsed = self.clock() - start
        stats = self.stats(layer)
        stats.self_s += elapsed - nested
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            stats.calls += 1
            stats.inclusive_s += elapsed
            stats.durations.append(elapsed)
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    def take(self) -> Dict[str, LayerStats]:
        """Return the stats gathered so far and start afresh."""
        if self._stack:
            raise RuntimeError("take() called inside an open layer call")
        taken, self.layers = self.layers, {}
        return taken


#: ``extra(stats, args, result)`` folds one call's work count in.
Extra = Callable[[LayerStats, tuple, object], None]


@dataclass(frozen=True)
class Target:
    """One entry point: ``module.owner.name`` (``owner=None``: module-level)."""

    module: str
    owner: Optional[str]
    name: str
    extra: Optional[Extra] = None


def _rows(stats: LayerStats, args: tuple, result) -> None:
    shape = getattr(result, "shape", None)
    stats.add("rows", shape[0] if shape else 1)


def _admission(stats: LayerStats, args: tuple, decision) -> None:
    stats.add("candidates", decision.candidates_evaluated)
    stats.add("admitted", int(decision.admitted))


def _checkpoint_bytes(stats: LayerStats, args: tuple, result) -> None:
    stats.add("bytes", os.path.getsize(args[1]))


def _routed(stats: LayerStats, args: tuple, result) -> None:
    stats.add("jobs", len(args[2]))


def _moves(stats: LayerStats, args: tuple, moves) -> None:
    stats.add("moves", len(moves))


def _methods(module: str, owner: str, *names: str, extra=None):
    return tuple(Target(module, owner, name, extra) for name in names)


_ONLINE = "repro.core.online"

#: Layer name -> the public entry points timed as that layer.
LAYERS: Dict[str, Tuple[Target, ...]] = {
    "placement.search": (
        Target("repro.placement.qos", "QoSAwarePlacer", "place"),
        Target("repro.placement.throughput", "ThroughputPlacer", "best"),
    ),
    "core.predict_scalar": _methods(
        _ONLINE, "OnlineModel", "predict", "predict_homogeneous",
        "predict_heterogeneous", "predict_under_corunners",
    ),
    "core.predict_batch": _methods(
        _ONLINE, "OnlineModel", "predict_batch", "predict_corunners_batch",
        "predict_placement_batch", "predict_placements_batch", extra=_rows,
    ),
    "core.observe": _methods(_ONLINE, "OnlineModel", "observe_placement"),
    # build_model is patched in both namespaces it is called from.
    "core.build_model": (
        Target("repro.core.builder", None, "build_model"),
        Target("repro.core.builder", None, "build_batch_profiles"),
        Target("repro.scale.scenario", None, "build_model"),
        Target("repro.scale.scenario", None, "build_batch_profiles"),
    ),
    "sim.deploy": _methods(
        "repro.sim.runner", "ClusterRunner", "run_deployments"
    ),
    "service.admission": _methods(
        "repro.service.admission", "AdmissionController", "try_admit",
        extra=_admission,
    ),
    "service.events": _methods("repro.service.events", "EventLog", "append"),
    "service.checkpoint": _methods(
        "repro.service.checkpoint", "ServiceCheckpoint",
        "capture", "restore", "load",
    ) + _methods(
        "repro.service.checkpoint", "ServiceCheckpoint", "save",
        extra=_checkpoint_bytes,
    ),
    "scale.router": _methods(
        "repro.scale.router", "HeadroomRouter", "route_many", extra=_routed
    ),
    "scale.coordinator": _methods(
        "repro.scale.coordinator", "GlobalCoordinator", "rebalance",
        extra=_moves,
    ),
    # Patched where the daemon's control loop looks it up.
    "daemon.execute": (Target("repro.daemon.daemon", None, "execute_epoch"),),
}


def _timed(tracer: Tracer, layer: str, fn, extra: Optional[Extra]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if extra is not None:
            extra(tracer.stats(layer), args, result)
        return result

    return wrapper


def _stamped(stamps: array, fn):
    append, clock = stamps.append, time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        append(clock())
        try:
            return fn(*args, **kwargs)
        finally:
            append(clock())

    return wrapper


def _patch(target: Target, wrap: Callable[[Callable], Callable]):
    """Wrap one entry point; returns ``(namespace, name, original)``."""
    namespace = importlib.import_module(target.module)
    if target.owner is not None:
        namespace = getattr(namespace, target.owner)
    original = vars(namespace)[target.name]
    if isinstance(original, (classmethod, staticmethod)):
        wrapped = type(original)(wrap(original.__func__))
    else:
        wrapped = wrap(original)
    setattr(namespace, target.name, wrapped)
    return namespace, target.name, original


@contextmanager
def _patched(wraps: List[Tuple[Target, Callable[[Callable], Callable]]]):
    patches = []
    try:
        for target, wrap in wraps:
            patches.append(_patch(target, wrap))
        yield
    finally:
        for namespace, name, original in reversed(patches):
            setattr(namespace, name, original)


@contextmanager
def traced(
    tracer: Tracer, layers: Dict[str, Tuple[Target, ...]] = LAYERS
) -> Iterator[Tracer]:
    """Time ``layers`` into ``tracer`` for the block; unpatch on exit."""
    wraps = [
        (target, functools.partial(_timed, tracer, layer, extra=target.extra))
        for layer, targets in layers.items()
        for target in targets
    ]
    with _patched(wraps):
        yield tracer


@contextmanager
def ticking(
    layers: Dict[str, Tuple[Target, ...]] = LAYERS
) -> Iterator[array]:
    """Stamp the clock at every entry to and exit from ``layers``."""
    stamps = array("d")
    wraps = [
        (target, functools.partial(_stamped, stamps))
        for targets in layers.values()
        for target in targets
    ]
    with _patched(wraps):
        yield stamps


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
