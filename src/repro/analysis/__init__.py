"""Analysis utilities: profiling, series extraction, tables, reports."""

from repro.analysis.profiler import (
    LatencyProfile,
    breakdown_rows,
    mean_llm_fraction,
    profile_from_aggregate,
)
from repro.analysis.report import (
    format_bar,
    format_bar_chart,
    format_series,
    format_table,
)
from repro.analysis.series import growth_slope, token_series_by_agent_purpose
from repro.analysis.tables import render_table1, render_table2, suite_rows, taxonomy_rows

__all__ = [
    "LatencyProfile",
    "breakdown_rows",
    "format_bar",
    "format_bar_chart",
    "format_series",
    "format_table",
    "growth_slope",
    "mean_llm_fraction",
    "profile_from_aggregate",
    "render_table1",
    "render_table2",
    "suite_rows",
    "taxonomy_rows",
    "token_series_by_agent_purpose",
]
