"""Error metrics, sampling statistics, and plain-text reporting."""

from repro.analysis.charts import ascii_chart, propagation_chart
from repro.analysis.errors import ErrorSummary, absolute_percent_error
from repro.analysis.reporting import format_series, format_table
from repro.analysis.stats import (
    Z_SCORES,
    finite_population_correction,
    margin_of_error,
)

__all__ = [
    "ErrorSummary",
    "ascii_chart",
    "propagation_chart",
    "Z_SCORES",
    "absolute_percent_error",
    "finite_population_correction",
    "format_series",
    "format_table",
    "margin_of_error",
]
