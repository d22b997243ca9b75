"""The recorder: nested spans, counters, gauges, histograms, logs.

One module-level :data:`RECORDER` is the whole dispatch mechanism.  It
is a :class:`NullRecorder` by default, whose every method is a no-op,
so instrumented code costs one module-attribute lookup plus one no-op
call when tracing is disabled — there is no ``if tracing:`` branching
at call sites.  Installing a :class:`TraceRecorder` (via
:func:`install` or the :func:`recording` context manager) turns the
same call sites into structured telemetry.

Hot call sites import the module, not the name::

    from repro.obs import recorder as _obs

    _obs.RECORDER.count("measure.cache_hit")
    with _obs.RECORDER.span("measure.setting", workload=abbrev) as span:
        ...
        span.set_sim(elapsed)

Determinism: a :class:`TraceRecorder` stamps every span with a logical
*step* sequence number (start and end).  Exports built from steps and
simulated-time attribution are byte-stable across runs of a seeded
workload; wall-clock durations are recorded alongside but excluded
from deterministic exports (see :mod:`repro.obs.sinks`).

Process model: the recorder is per-process state.  Cells fanned out to
worker processes (``--cell-workers``, :mod:`repro.parallel`) record
into the workers' own (null) recorders; only parent-side spans and
counters appear in the trace.  Serial runs — the default — capture
everything.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


class NullSpan:
    """Reusable no-op context manager returned by :class:`NullRecorder`."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set(self, **_attrs) -> "NullSpan":
        return self

    def set_sim(self, _elapsed: float) -> "NullSpan":
        return self


#: The singleton no-op span; every disabled ``span()`` call returns it.
NULL_SPAN = NullSpan()


class NullRecorder:
    """Tracing disabled: every operation is a no-op.

    Stateless and allocation-free — ``span()`` hands back the shared
    :data:`NULL_SPAN` instead of building anything.
    """

    __slots__ = ()

    enabled = False

    def span(self, _name: str, **_attrs) -> NullSpan:
        return NULL_SPAN

    def count(self, _name: str, _value: float = 1) -> None:
        pass

    def gauge(self, _name: str, _value: float) -> None:
        pass

    def observe(self, _name: str, _value: float) -> None:
        pass

    def log(self, _message: str, *, stream: str = "out") -> None:
        pass


#: Shared disabled recorder (also what :func:`install` restores to).
NULL_RECORDER = NullRecorder()


#: Ambient span attributes: merged into every span started while an
#: :func:`ambient` block is active.  The scale layer uses this to stamp
#: ``cell=<id>`` onto every span a cell's epoch produces
#: (``service.epoch``, ``anneal.search``, ...) without threading a cell
#: id through every instrumented call site.  Explicit ``span()``
#: attributes win on key collisions.
_AMBIENT: Dict[str, object] = {}


@contextmanager
def ambient(**attrs: object) -> Iterator[None]:
    """Attach ``attrs`` to every span started inside the block.

    Nests: inner blocks shadow outer values for the duration of the
    inner block only.  Costs nothing when tracing is disabled beyond
    the dict update (the :class:`NullRecorder` never reads it).
    """
    previous = {key: _AMBIENT[key] for key in attrs if key in _AMBIENT}
    _AMBIENT.update(attrs)
    try:
        yield
    finally:
        for key in attrs:
            if key in previous:
                _AMBIENT[key] = previous[key]
            else:
                _AMBIENT.pop(key, None)


@dataclass
class Span:
    """One recorded span.

    ``seq_start``/``seq_end`` are logical step numbers (deterministic
    under a fixed seed); ``wall_ns`` is the measured wall-clock
    duration (excluded from deterministic exports); ``sim_elapsed``
    is optional simulated-time attribution set by the call site.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    seq_start: int
    seq_end: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    wall_ns: Optional[int] = None
    sim_elapsed: Optional[float] = None


class ActiveSpan:
    """Context-manager handle over a :class:`Span` being recorded."""

    __slots__ = ("_recorder", "record", "_t0")

    def __init__(self, recorder: "TraceRecorder", record: Span) -> None:
        self._recorder = recorder
        self.record = record
        self._t0 = 0

    def __enter__(self) -> "ActiveSpan":
        self._recorder._open(self.record)
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *_exc) -> bool:
        self.record.wall_ns = time.perf_counter_ns() - self._t0
        self._recorder._close(self.record)
        return False

    def set(self, **attrs) -> "ActiveSpan":
        """Attach (or overwrite) attributes on the span."""
        self.record.attrs.update(attrs)
        return self

    def set_sim(self, elapsed: float) -> "ActiveSpan":
        """Attribute ``elapsed`` simulated time units to this span."""
        self.record.sim_elapsed = float(elapsed)
        return self


class TraceRecorder:
    """Tracing enabled: collects spans, counters, gauges, histograms.

    Spans are stored in start order; nesting is tracked with an
    explicit stack, so ``parent_id`` links reconstruct the tree.
    The recorder itself is the in-memory sink — exports render from
    it (:mod:`repro.obs.sinks`) without further bookkeeping.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, List[float]] = {}
        self.logs: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self._seq = 0

    # -- span plumbing -------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def span(self, name: str, **attrs) -> ActiveSpan:
        if _AMBIENT:
            merged = dict(_AMBIENT)
            merged.update(attrs)
            attrs = merged
        record = Span(
            span_id=len(self.spans) + 1,
            parent_id=None,
            name=name,
            seq_start=0,
            attrs=dict(attrs),
        )
        return ActiveSpan(self, record)

    def _open(self, record: Span) -> None:
        record.span_id = len(self.spans) + 1
        record.parent_id = self._stack[-1] if self._stack else None
        record.seq_start = self._next_seq()
        self.spans.append(record)
        self._stack.append(record.span_id)

    def _close(self, record: Span) -> None:
        record.seq_end = self._next_seq()
        if self._stack and self._stack[-1] == record.span_id:
            self._stack.pop()
        elif record.span_id in self._stack:  # tolerate out-of-order exits
            self._stack.remove(record.span_id)

    # -- metrics -------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named monotonic counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to its latest value."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the named histogram."""
        self.histograms.setdefault(name, []).append(float(value))

    def log(self, message: str, *, stream: str = "out") -> None:
        """Record one console line (see :mod:`repro.obs.console`)."""
        self.logs.append(
            {"seq": self._next_seq(), "stream": stream, "message": message}
        )

    # -- introspection helpers (tests, summaries) ----------------------
    def spans_named(self, name: str) -> List[Span]:
        """All spans with the given name, in start order."""
        return [span for span in self.spans if span.name == name]

    def counter(self, name: str) -> float:
        """Current value of a counter (0 if never touched)."""
        return self.counters.get(name, 0)


#: The active recorder.  Instrumented code reads this through the
#: module (``_obs.RECORDER``) so installs take effect immediately.
RECORDER = NULL_RECORDER


def current():
    """The currently installed recorder."""
    return RECORDER


def install(recorder) -> object:
    """Install ``recorder`` as the process-wide recorder.

    Returns the previously installed recorder so callers can restore
    it (prefer the :func:`recording` context manager).
    """
    global RECORDER
    previous = RECORDER
    RECORDER = recorder if recorder is not None else NULL_RECORDER
    return previous


@contextmanager
def recording(recorder: Optional[TraceRecorder] = None) -> Iterator[TraceRecorder]:
    """Run a block with tracing enabled; restore the previous recorder.

    Yields the (possibly freshly created) :class:`TraceRecorder`::

        with recording() as rec:
            build_model(runner, ["M.lmps"])
        print(rec.counter("measure.simulated"))
    """
    active = recorder if recorder is not None else TraceRecorder()
    previous = install(active)
    try:
        yield active
    finally:
        install(previous)
