"""Figure 2: runtime latency analysis across the 14-workload suite.

(a) Average per-step latency share contributed by each module.
(b) Total end-to-end runtime per long-horizon task, in minutes.

Paper shapes to preserve: 10-30 s per step; LLM-based modules ≈ 70 % of
latency on average; execution a large share for RoCo / DaDu-E /
EmbodiedGPT; totals in the tens of minutes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.profiler import (
    LatencyProfile,
    breakdown_rows,
    mean_llm_fraction,
    profile_from_aggregate,
)
from repro.analysis.report import format_bar_chart, format_table
from repro.core.clock import MODULE_ORDER
from repro.core.metrics import AggregateResult
from repro.experiments.common import ExperimentSettings, GridCell, measure_grid
from repro.workloads.registry import WORKLOAD_SUITE


@dataclass(frozen=True)
class Fig2Result:
    profiles: list[LatencyProfile]

    @property
    def mean_llm_fraction(self) -> float:
        return mean_llm_fraction(self.profiles)


def grid() -> list[GridCell]:
    """One cell per suite workload, in registry order."""
    return [GridCell(config=workload.config) for workload in WORKLOAD_SUITE]


def summarize(aggregates: list[AggregateResult]) -> Fig2Result:
    return Fig2Result(profiles=[profile_from_aggregate(agg) for agg in aggregates])


def run(settings: ExperimentSettings) -> Fig2Result:
    return summarize(measure_grid(grid(), settings))


def render(result: Fig2Result) -> str:
    headers = ["Workload", "s/step"] + [str(module) for module in MODULE_ORDER]
    part_a = format_table(
        headers,
        breakdown_rows(result.profiles),
        title="Fig 2a: per-step latency breakdown by module (% of step time)",
    )
    part_b = format_bar_chart(
        labels=[profile.workload for profile in result.profiles],
        values=[profile.total_minutes for profile in result.profiles],
        title="Fig 2b: total runtime latency per task",
        unit=" min",
    )
    summary = (
        f"Suite-average LLM-module latency share: "
        f"{100.0 * result.mean_llm_fraction:.1f}% (paper: 70.2%)"
    )
    return "\n\n".join([part_a, part_b, summary])
