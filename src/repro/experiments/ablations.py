"""Optimization-recommendation ablations (paper Recs. 1, 5, 7, 8, 9, 10).

Not a numbered paper figure: these runs quantify the text's optimization
claims by comparing each recommendation against its baseline on the
workloads where the paper motivates it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.core.config import SystemConfig
from repro.core.metrics import AggregateResult
from repro.experiments.common import ExperimentSettings, GridCell, measure_grid
from repro.optim import (
    with_batching,
    with_comm_filter,
    with_dual_memory,
    with_hierarchy,
    with_mlc_runtime,
    with_multistep_planning,
    with_plan_then_comm,
    with_quantization,
)
from repro.workloads.registry import get_workload


@dataclass(frozen=True)
class AblationRow:
    recommendation: str
    workload: str
    variant: str  # "baseline" | "optimized"
    success_rate: float
    total_minutes: float
    llm_calls: float
    messages_sent: float


@dataclass(frozen=True)
class AblationsResult:
    rows: list[AblationRow]

    def pair(self, recommendation: str) -> tuple[AblationRow, AblationRow]:
        baseline = optimized = None
        for row in self.rows:
            if row.recommendation != recommendation:
                continue
            if row.variant == "baseline":
                baseline = row
            else:
                optimized = row
        if baseline is None or optimized is None:
            raise KeyError(f"no pair for {recommendation}")
        return baseline, optimized

    def latency_speedup(self, recommendation: str) -> float:
        baseline, optimized = self.pair(recommendation)
        if optimized.total_minutes <= 0:
            return 0.0
        return baseline.total_minutes / optimized.total_minutes


def _cases() -> list[tuple[str, str, str, SystemConfig]]:
    """(recommendation, workload, variant, config) in report order."""
    coela = get_workload("coela").config
    combo = get_workload("combo").config
    dmas = get_workload("dmas").config
    mindagent = get_workload("mindagent").config
    coela_big_memory = coela.with_memory_capacity(60)
    mindagent_8 = mindagent.with_agents(8)
    pairs = [
        ("rec1_batching", "combo", combo, with_batching(combo)),
        ("rec1_quantization", "combo", combo, with_quantization(combo)),
        ("rec1_mlc_runtime", "combo", combo, with_mlc_runtime(combo)),
        (
            "rec5_dual_memory",
            "coela(cap=60)",
            coela_big_memory,
            with_dual_memory(coela_big_memory),
        ),
        ("rec7_multistep", "combo", combo, with_multistep_planning(combo, 3)),
        ("rec8_plan_then_comm", "coela", coela, with_plan_then_comm(coela)),
        ("rec9_hierarchy", "mindagent(n=8)", mindagent_8, with_hierarchy(mindagent_8, 4)),
        ("rec10_comm_filter", "dmas", dmas, with_comm_filter(dmas)),
    ]
    return [
        (recommendation, workload, variant, config)
        for recommendation, workload, baseline, optimized in pairs
        for variant, config in (("baseline", baseline), ("optimized", optimized))
    ]


def grid() -> list[GridCell]:
    """One cell per (recommendation, variant)."""
    return [GridCell(config=config) for *_, config in _cases()]


def summarize(aggregates: list[AggregateResult]) -> AblationsResult:
    rows = [
        AblationRow(
            recommendation=recommendation,
            workload=workload,
            variant=variant,
            success_rate=aggregate.success_rate,
            total_minutes=aggregate.mean_sim_minutes,
            llm_calls=aggregate.mean_llm_calls,
            messages_sent=aggregate.mean_messages_sent,
        )
        for (recommendation, workload, variant, _), aggregate in zip(_cases(), aggregates)
    ]
    return AblationsResult(rows=rows)


def run(settings: ExperimentSettings) -> AblationsResult:
    return summarize(measure_grid(grid(), settings))


def render(result: AblationsResult) -> str:
    headers = [
        "Recommendation",
        "Workload",
        "Variant",
        "Success %",
        "Runtime min",
        "LLM calls",
    ]
    rows = []
    for row in result.rows:
        rows.append(
            [
                row.recommendation,
                row.workload,
                row.variant,
                f"{100.0 * row.success_rate:.0f}",
                f"{row.total_minutes:.1f}",
                f"{row.llm_calls:.0f}",
            ]
        )
    table = format_table(headers, rows, title="Optimization recommendation ablations")
    speedups = []
    for recommendation in sorted({row.recommendation for row in result.rows}):
        speedups.append(
            f"{recommendation}: {result.latency_speedup(recommendation):.2f}x latency"
        )
    return table + "\n\n" + "\n".join(speedups)
