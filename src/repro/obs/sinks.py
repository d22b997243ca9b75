"""Trace export: JSONL stream and Chrome-trace/Perfetto ``trace.json``.

Both formats render from a :class:`~repro.obs.recorder.TraceRecorder`
and are **byte-stable** in their default deterministic mode: span
timestamps are logical step numbers, simulated-time attribution is
rounded to six decimals (like the service event log), keys are sorted,
and wall-clock durations are omitted.  Two runs of the same seeded
workload therefore produce identical bytes, so CI can ``diff`` traces
the same way it diffs service snapshots.

Pass ``deterministic=False`` to include wall-clock microseconds (for
human performance work in Perfetto); such traces are not diffable.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro._util import round_floats
from repro.obs.recorder import Span, TraceRecorder

#: Trace payload schema version (bump on incompatible layout changes).
TRACE_VERSION = 1


def _span_row(span: Span, *, deterministic: bool) -> Dict[str, object]:
    row: Dict[str, object] = {
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "seq0": span.seq_start,
        "seq1": span.seq_end,
        "attrs": round_floats(span.attrs),
    }
    if span.sim_elapsed is not None:
        row["sim"] = round(span.sim_elapsed, 6)
    if not deterministic and span.wall_ns is not None:
        row["wall_us"] = span.wall_ns // 1000
    return row


def _histogram_summary(values: List[float]) -> Dict[str, object]:
    return {
        "count": len(values),
        "sum": round(sum(values), 6),
        "min": round(min(values), 6),
        "max": round(max(values), 6),
    }


def to_payload(
    recorder: TraceRecorder, *, deterministic: bool = True
) -> Dict[str, object]:
    """The canonical dict form of a recorded trace.

    This is the single source both exporters serialize and the form
    :func:`repro.obs.summary.load_trace` normalizes back to.
    """
    return {
        "version": TRACE_VERSION,
        "spans": [
            _span_row(span, deterministic=deterministic)
            for span in recorder.spans
        ],
        "counters": {
            name: round_floats(value)
            for name, value in sorted(recorder.counters.items())
        },
        "gauges": {
            name: round_floats(value)
            for name, value in sorted(recorder.gauges.items())
        },
        "histograms": {
            name: _histogram_summary(values)
            for name, values in sorted(recorder.histograms.items())
        },
        "logs": [dict(entry) for entry in recorder.logs],
    }


def to_jsonl(recorder: TraceRecorder, *, deterministic: bool = True) -> str:
    """The trace as JSON lines (one record per line, type-tagged)."""
    payload = to_payload(recorder, deterministic=deterministic)
    lines = [
        json.dumps(
            {"type": "trace", "version": payload["version"]}, sort_keys=True
        )
    ]
    for span in payload["spans"]:
        lines.append(json.dumps({"type": "span", **span}, sort_keys=True))
    for section in ("counters", "gauges"):
        for name, value in payload[section].items():
            lines.append(
                json.dumps(
                    {"type": section[:-1], "name": name, "value": value},
                    sort_keys=True,
                )
            )
    for name, summary in payload["histograms"].items():
        lines.append(
            json.dumps(
                {"type": "histogram", "name": name, **summary}, sort_keys=True
            )
        )
    for entry in payload["logs"]:
        lines.append(json.dumps({"type": "log", **entry}, sort_keys=True))
    return "\n".join(lines) + "\n"


def to_chrome_trace(
    recorder: TraceRecorder, *, deterministic: bool = True
) -> Dict[str, object]:
    """The trace in Chrome-trace (``chrome://tracing`` / Perfetto) form.

    Spans become complete (``ph: "X"``) events.  In deterministic mode
    timestamps are logical steps; otherwise wall microseconds.
    Counters, gauges, and histogram summaries travel in ``otherData``
    (Perfetto preserves it; diff tooling reads it).
    """
    events = []
    for span in recorder.spans:
        args: Dict[str, object] = dict(round_floats(span.attrs))
        if span.sim_elapsed is not None:
            args["sim"] = round(span.sim_elapsed, 6)
        if deterministic:
            ts = span.seq_start
            dur = max((span.seq_end or span.seq_start) - span.seq_start, 1)
        else:
            ts = span.seq_start  # steps still order concurrent spans
            dur = (span.wall_ns or 0) // 1000
            args["wall_us"] = dur
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": ts,
                "dur": dur,
                "id": span.span_id,
                "args": args,
            }
        )
    payload = to_payload(recorder, deterministic=deterministic)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "version": payload["version"],
            "counters": payload["counters"],
            "gauges": payload["gauges"],
            "histograms": payload["histograms"],
            "logs": payload["logs"],
        },
    }


def render_trace(
    recorder: TraceRecorder, path: str, *, deterministic: bool = True
) -> str:
    """The serialized trace for ``path`` (format chosen by suffix).

    ``*.jsonl`` renders the JSONL stream; anything else the
    Chrome-trace JSON document.
    """
    if path.endswith(".jsonl"):
        return to_jsonl(recorder, deterministic=deterministic)
    return (
        json.dumps(
            to_chrome_trace(recorder, deterministic=deterministic),
            sort_keys=True,
            indent=2,
        )
        + "\n"
    )


def write_trace(
    recorder: TraceRecorder,
    path: str,
    *,
    deterministic: bool = True,
) -> None:
    """Write the trace to ``path`` (see :func:`render_trace`)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_trace(recorder, path, deterministic=deterministic))
