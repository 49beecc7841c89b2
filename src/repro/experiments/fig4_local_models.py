"""Figure 4: local model analysis — GPT-4 API vs Llama-3-8B local planning.

For ten suite systems, swap the planning (and communication) model
between GPT-4 and Llama-3-8B and measure task success rate and total
end-to-end runtime.

Paper shapes to preserve: the smaller local model lowers success rates
and *increases* end-to-end runtime despite faster per-inference latency
(worse plans cost more steps than fast decoding saves); at least one
workload fails outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.analysis.report import format_table
from repro.core.clock import ModuleName
from repro.core.metrics import AggregateResult
from repro.experiments.common import ExperimentSettings, GridCell, measure_grid
from repro.workloads.registry import get_workload

SUBJECTS = (
    "jarvis-1",
    "dadu-e",
    "mp5",
    "deps",
    "mindagent",
    "ola",
    "combo",
    "roco",
    "dmas",
    "coela",
)

MODELS = ("gpt-4", "llama-3-8b")


@dataclass(frozen=True)
class ModelCell:
    workload: str
    model: str
    success_rate: float
    total_minutes: float
    seconds_per_inference: float


@dataclass(frozen=True)
class Fig4Result:
    cells: list[ModelCell]

    def cell(self, workload: str, model: str) -> ModelCell:
        for cell in self.cells:
            if cell.workload == workload and cell.model == model:
                return cell
        raise KeyError(f"no cell for {workload}/{model}")

    def mean_success(self, model: str) -> float:
        values = [cell.success_rate for cell in self.cells if cell.model == model]
        return sum(values) / len(values) if values else 0.0

    def mean_minutes(self, model: str) -> float:
        values = [cell.total_minutes for cell in self.cells if cell.model == model]
        return sum(values) / len(values) if values else 0.0


def grid() -> list[GridCell]:
    """One cell per (subject, planning model)."""
    return [
        GridCell(config=get_workload(subject).config.with_planner(model))
        for subject, model in product(SUBJECTS, MODELS)
    ]


def summarize(aggregates: list[AggregateResult]) -> Fig4Result:
    cells = []
    for (subject, model), aggregate in zip(product(SUBJECTS, MODELS), aggregates):
        per_inference = (
            aggregate.module_seconds.get(ModuleName.PLANNING, 0.0) / aggregate.mean_llm_calls
            if aggregate.mean_llm_calls
            else 0.0
        )
        cells.append(
            ModelCell(
                workload=subject,
                model=model,
                success_rate=aggregate.success_rate,
                total_minutes=aggregate.mean_sim_minutes,
                seconds_per_inference=per_inference,
            )
        )
    return Fig4Result(cells=cells)


def run(settings: ExperimentSettings | None = None) -> Fig4Result:
    settings = settings or ExperimentSettings()
    return summarize(measure_grid(grid(), settings))


def render(result: Fig4Result) -> str:
    headers = [
        "Workload",
        "Success % (gpt-4)",
        "Success % (llama-3-8b)",
        "Runtime min (gpt-4)",
        "Runtime min (llama-3-8b)",
    ]
    rows = []
    for subject in SUBJECTS:
        gpt = result.cell(subject, "gpt-4")
        llama = result.cell(subject, "llama-3-8b")
        llama_success = (
            "Fail" if llama.success_rate == 0.0 else f"{100.0 * llama.success_rate:.0f}"
        )
        rows.append(
            [
                subject,
                f"{100.0 * gpt.success_rate:.0f}",
                llama_success,
                f"{gpt.total_minutes:.1f}",
                f"{llama.total_minutes:.1f}",
            ]
        )
    table = format_table(
        headers, rows, title="Fig 4: GPT-4 API call vs Llama-3-8B local planning"
    )
    summary = (
        f"mean success: gpt-4 {100.0 * result.mean_success('gpt-4'):.0f}% vs "
        f"llama-3-8b {100.0 * result.mean_success('llama-3-8b'):.0f}%; "
        f"mean runtime: {result.mean_minutes('gpt-4'):.1f} vs "
        f"{result.mean_minutes('llama-3-8b'):.1f} min "
        "(paper: smaller local model lowers success and raises end-to-end runtime)"
    )
    return table + "\n\n" + summary
