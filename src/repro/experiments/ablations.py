"""Optimization-recommendation ablations (paper Recs. 1, 5, 7, 8, 9, 10).

Not a numbered paper figure: these runs quantify the text's optimization
claims by comparing each recommendation against its baseline on the
workloads where the paper motivates it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.core.metrics import AggregateResult
from repro.experiments.common import ExperimentSettings, GridCell, measure_grid
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


def _cases() -> list[tuple[str, str, str, GridCell]]:
    """(recommendation, workload, variant, cell) in report order."""
    coela = get_workload("coela").config
    combo = get_workload("combo").config
    dmas = get_workload("dmas").config
    mindagent = get_workload("mindagent").config
    coela_big_memory = coela.with_memory(capacity_steps=60)
    # Rec. 9 runs the registered mindagent at 8 agents, so its baseline
    # is Fig. 7's 8-agent medium cell: the same job, run once.
    team_sizes = {"rec9_hierarchy": 8}
    pairs = [
        ("rec1_batching", "combo", combo, combo.with_optimizations(serve_mode="batched")),
        ("rec1_quantization", "combo", combo, combo.with_optimizations(quantization="awq")),
        ("rec1_mlc_runtime", "combo", combo, combo.with_optimizations(runtime="mlc")),
        (
            "rec5_dual_memory",
            "coela(cap=60)",
            coela_big_memory,
            coela_big_memory.with_memory(dual=True),
        ),
        ("rec7_multistep", "combo", combo, combo.with_optimizations(multistep_horizon=3)),
        ("rec8_plan_then_comm", "coela", coela, coela.with_optimizations(plan_then_comm=True)),
        (
            "rec9_hierarchy",
            "mindagent(n=8)",
            mindagent,
            mindagent.with_optimizations(hierarchy_cluster_size=4),
        ),
        ("rec10_comm_filter", "dmas", dmas, dmas.with_optimizations(comm_filter=True)),
    ]
    return [
        (
            recommendation,
            workload,
            variant,
            GridCell(config=config, n_agents=team_sizes.get(recommendation)),
        )
        for recommendation, workload, baseline, optimized in pairs
        for variant, config in (("baseline", baseline), ("optimized", optimized))
    ]


def grid() -> list[GridCell]:
    """One cell per (recommendation, variant)."""
    return [cell for *_, cell in _cases()]


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
