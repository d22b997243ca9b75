"""Plain-text rendering of tables and figure series.

Every experiment module returns structured data; these helpers render
them the way the paper's tables and figures read, so benchmark runs and
examples print directly comparable artifacts without any plotting
dependency.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence

from repro.errors import ConfigurationError


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    float_format: str = "{:.2f}",
) -> str:
    """Render an aligned ASCII table.

    Floats are formatted with ``float_format``; everything else with
    ``str``.
    """
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(float_format.format(cell))
            else:
                cells.append(str(cell))
        rendered.append(cells)
    widths = [len(h) for h in headers]
    for cells in rendered:
        if len(cells) != len(headers):
            raise ConfigurationError(
                f"row has {len(cells)} cells for {len(headers)} headers"
            )
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for cells in rendered:
        lines.append("  ".join(cells[i].ljust(widths[i]) for i in range(len(cells))))
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[float]],
    *,
    float_format: str = "{:.3f}",
) -> str:
    """Render figure series as a table: one x column, one per series."""
    headers = [x_label] + list(series)
    rows = []
    for idx, x in enumerate(x_values):
        row: List[object] = [x]
        for name in series:
            values = series[name]
            if len(values) != len(x_values):
                raise ConfigurationError(
                    f"series {name!r} has {len(values)} points for "
                    f"{len(x_values)} x values"
                )
            row.append(values[idx])
        rows.append(row)
    return format_table(headers, rows, float_format=float_format)


def render_service_snapshot(snapshot) -> str:
    """Render a service :class:`~repro.service.telemetry.MetricsSnapshot`.

    Accepts anything exposing ``rows() -> [(metric, value), ...]`` so
    the reporting layer stays import-free of the service package.
    """
    return format_table(["metric", "value"], snapshot.rows(),
                        float_format="{:.3f}")


def render_event_counts(counts: Mapping[str, int]) -> str:
    """Render an event-kind histogram (``EventLog.counts()``)."""
    return format_table(
        ["event", "count"], [(kind, counts[kind]) for kind in sorted(counts)]
    )
