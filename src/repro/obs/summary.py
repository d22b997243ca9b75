"""Trace loading and the ``repro trace summarize`` reporter.

:func:`load_trace` accepts either export format
(:mod:`repro.obs.sinks`) and normalizes it back to the canonical
payload dict.  :func:`summarize_text` renders the operator report:
span counts with logical/simulated-time attribution, counter and
histogram totals, and — when the trace covers a profiling run — the
Table 3 probe-count accounting reconstructed *from the trace alone*
(by counting per-probe spans, not by trusting any summary field).
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.errors import ReproError


def _payload_from_jsonl(lines: List[str]) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "version": None,
        "spans": [],
        "counters": {},
        "gauges": {},
        "histograms": {},
        "logs": [],
    }
    for line in lines:
        if not line.strip():
            continue
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError(
                f"a record must be a JSON object, got {type(record).__name__}"
            )
        kind = record.pop("type", None)
        if kind == "trace":
            payload["version"] = record.get("version")
        elif kind == "span":
            payload["spans"].append(record)
        elif kind == "counter":
            payload["counters"][record["name"]] = record["value"]
        elif kind == "gauge":
            payload["gauges"][record["name"]] = record["value"]
        elif kind == "histogram":
            name = record.pop("name")
            payload["histograms"][name] = record
        elif kind == "log":
            payload["logs"].append(record)
        else:
            raise ReproError(f"unknown trace record type {kind!r}")
    return payload


def _payload_from_chrome(document: Dict[str, object]) -> Dict[str, object]:
    other = document.get("otherData", {})
    spans = []
    for event in document.get("traceEvents", []):
        args = dict(event.get("args", {}))
        row = {
            "id": event.get("id"),
            "parent": None,  # the event form flattens the tree
            "name": event["name"],
            "seq0": event["ts"],
            "seq1": event["ts"] + event.get("dur", 1),
            "attrs": args,
        }
        if "sim" in args:
            row["sim"] = args.pop("sim")
        spans.append(row)
    return {
        "version": other.get("version"),
        "spans": spans,
        "counters": dict(other.get("counters", {})),
        "gauges": dict(other.get("gauges", {})),
        "histograms": dict(other.get("histograms", {})),
        "logs": list(other.get("logs", [])),
    }


def load_trace(path: str) -> Dict[str, object]:
    """Load a trace file (JSONL or Chrome-trace) into payload form.

    Raises
    ------
    ReproError
        If the file is not a recognizable trace export.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ReproError(f"cannot read trace file {path!r}: {exc}") from None
    stripped = text.lstrip()
    if not stripped:
        raise ReproError(f"trace file {path!r} is empty")
    if stripped.startswith("{") and '"traceEvents"' in stripped:
        # A Chrome export is one JSON document; a JSONL export is one
        # record per line (and only a multi-line one could mention
        # traceEvents inside an attribute, in which case the full-text
        # parse below fails and we fall through to the JSONL reader).
        # The substring probe must scan the whole text — the counters
        # block preceding traceEvents can be arbitrarily large.
        try:
            document = json.loads(text)
        except json.JSONDecodeError:
            document = None
        if isinstance(document, dict) and "traceEvents" in document:
            try:
                return _payload_from_chrome(document)
            except (KeyError, TypeError, AttributeError) as exc:
                raise ReproError(
                    f"malformed Chrome trace {path!r}: {exc}"
                ) from None
    try:
        return _payload_from_jsonl(text.splitlines())
    except (ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
        raise ReproError(f"malformed JSONL trace {path!r}: {exc}") from None


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def span_rollup(payload: Dict[str, object]) -> List[Tuple[str, int, int, float]]:
    """Per-span-name rollup: (name, count, total steps, total sim time)."""
    totals: Dict[str, List[float]] = {}
    for span in payload["spans"]:
        entry = totals.setdefault(span["name"], [0, 0, 0.0])
        entry[0] += 1
        seq1 = span.get("seq1") or span.get("seq0", 0)
        entry[1] += max(seq1 - span.get("seq0", 0), 0)
        entry[2] += float(span.get("sim") or 0.0)
    return [
        (name, int(count), int(steps), sim)
        for name, (count, steps, sim) in sorted(totals.items())
    ]


def cell_rollup(payload: Dict[str, object]) -> List[Tuple[int, int, int, int, float]]:
    """Per-cell attribution for sharded days.

    Groups spans carrying a ``cell`` attribute (the scale layer tags
    every span recorded inside a cell's epoch body) into
    ``(cell, epochs, spans, steps, sim_time)`` rows.  Empty for flat
    traces — no span carries the attribute, and the summary section is
    suppressed.
    """
    totals: Dict[int, List[float]] = {}
    for span in payload["spans"]:
        cell = span.get("attrs", {}).get("cell")
        if cell is None:
            continue
        entry = totals.setdefault(int(cell), [0, 0, 0, 0.0])
        if span["name"] == "service.epoch":
            entry[0] += 1
        entry[1] += 1
        seq1 = span.get("seq1") or span.get("seq0", 0)
        entry[2] += max(seq1 - span.get("seq0", 0), 0)
        entry[3] += float(span.get("sim") or 0.0)
    return [
        (cell, int(epochs), int(spans), int(steps), sim)
        for cell, (epochs, spans, steps, sim) in sorted(totals.items())
    ]


def probe_accounting(
    payload: Dict[str, object],
) -> List[Tuple[str, str, int, int, float]]:
    """Table 3 from the trace: per-workload probe counts and cost.

    The probe count is derived by *counting* ``profile.probe`` spans
    (one per distinct interference setting actually measured); the
    grid size comes from the enclosing ``profile.workload`` span's
    ``total_settings`` attribute.  Rows are
    ``(workload, algorithm, probes, total_settings, cost_percent)``.
    """
    probes: Dict[str, int] = {}
    for span in payload["spans"]:
        if span["name"] != "profile.probe":
            continue
        workload = span.get("attrs", {}).get("workload")
        if workload is not None:
            probes[workload] = probes.get(workload, 0) + 1
    rows = []
    for span in payload["spans"]:
        if span["name"] != "profile.workload":
            continue
        attrs = span.get("attrs", {})
        workload = attrs.get("workload")
        total = attrs.get("total_settings")
        if workload is None or not total:
            continue
        measured = probes.get(workload, 0)
        rows.append(
            (
                str(workload),
                str(attrs.get("algorithm", "?")),
                measured,
                int(total),
                100.0 * measured / int(total),
            )
        )
    return rows


_BATCH = "model.predict.batch."

#: The ``repro trace summarize`` sections that total counters by name
#: prefix, in report order: ``(title, first column, prefixes, include
#: gauges, float format)``.  A section appears only when some name
#: matches; ints print as they are, floats in the section's format.
PREFIX_SECTIONS: Tuple[Tuple[str, str, Tuple[str, ...], bool, str], ...] = (
    ("Fault injection (fault.* / retry.* totals)", "Event",
     ("fault.", "retry."), False, ".3f"),
    ("Daemon (daemon.* counters and gauges)", "Metric",
     ("daemon.",), True, ".1f"),
    ("Elastic capacity (provider.* counters and gauges)", "Metric",
     ("provider.",), True, ".3f"),
    ("Batch prediction (model.predict.batch.* totals)", "Metric",
     (_BATCH,), False, ".1f"),
)


def prefix_accounting(
    payload: Dict[str, object],
    prefixes: Tuple[str, ...],
    *,
    gauges: bool = False,
) -> List[Tuple[str, object]]:
    """Counters named under ``prefixes``, then (with ``gauges``) gauges.

    Rows are ``(name, value)``, sorted within counters and within
    gauges; gauge names carry a `` (gauge)`` suffix.  The batch
    section adds the derived mean batch size (requests per call), the
    operator's check that the hot loop amortizes: a mean near 1 means
    the batch path is pure overhead.
    """
    counters = payload.get("counters", {})
    rows = sorted(
        (name, value)
        for name, value in counters.items()
        if name.startswith(prefixes)
    )
    if gauges:
        rows.extend(sorted(
            (f"{name} (gauge)", value)
            for name, value in payload.get("gauges", {}).items()
            if name.startswith(prefixes)
        ))
    calls = counters.get(_BATCH + "calls", 0)
    if prefixes == (_BATCH,) and calls:
        requests = counters.get(_BATCH + "requests", 0)
        rows.append(("mean batch size", round(requests / calls, 1)))
    return rows


def summarize_text(payload: Dict[str, object]) -> str:
    """Human-readable trace summary (the ``repro trace summarize`` body)."""
    # Imported here: analysis -> obs would otherwise be circular for
    # callers that only record.
    from repro.analysis.reporting import format_table

    sections: List[str] = []
    rollup = span_rollup(payload)
    if rollup:
        sections.append("Spans:\n" + format_table(
            ["Span", "Count", "Steps", "Sim time"],
            [(name, count, steps, f"{sim:.3f}") for name, count, steps, sim in rollup],
        ))
    counters = payload.get("counters", {})
    if counters:
        sections.append("Counters:\n" + format_table(
            ["Counter", "Value"], sorted(counters.items()),
        ))
    histograms = payload.get("histograms", {})
    if histograms:
        sections.append("Histograms:\n" + format_table(
            ["Histogram", "Count", "Sum", "Min", "Max"],
            [
                (name, s.get("count"), s.get("sum"), s.get("min"), s.get("max"))
                for name, s in sorted(histograms.items())
            ],
        ))
    cells = cell_rollup(payload)
    if cells:
        sections.append(
            "Per-cell attribution (spans tagged by the scale layer):\n"
            + format_table(
                ["Cell", "Epochs", "Spans", "Steps", "Sim time"],
                [
                    (cell, epochs, spans, steps, f"{sim:.3f}")
                    for cell, epochs, spans, steps, sim in cells
                ],
            )
        )
    table3 = probe_accounting(payload)
    if table3:
        sections.append(
            "Profiling cost (Table 3, derived from probe spans):\n"
            + format_table(
                ["Workload", "Algorithm", "Probes", "Grid", "Cost (%)"],
                [
                    (workload, algorithm, measured, total, f"{cost:.1f}")
                    for workload, algorithm, measured, total, cost in table3
                ],
            )
        )
    for title, column, prefixes, gauges, spec in PREFIX_SECTIONS:
        rows = prefix_accounting(payload, prefixes, gauges=gauges)
        if rows:
            sections.append(f"{title}:\n" + format_table(
                [column, "Total"],
                [
                    (name, value if isinstance(value, int)
                     else format(value, spec))
                    for name, value in rows
                ],
            ))
    if not sections:
        return "(empty trace)"
    return "\n\n".join(sections)
