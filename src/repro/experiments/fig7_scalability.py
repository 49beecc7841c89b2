"""Figure 7: multi-agent scalability analysis.

Sweep the number of agents (2-12) across task difficulties for one
centralized system (MindAgent) and two decentralized systems (CoELA,
COMBO), measuring task success rate and end-to-end latency.

Paper shapes to preserve:
- centralized: success declines sharply with agent count (joint-planning
  complexity) while latency scales mildly (one call per step);
- decentralized: success rises then falls (collaboration dilution);
  latency explodes super-linearly (per-agent calls × growing dialogue).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.analysis.report import format_series
from repro.core.metrics import AggregateResult
from repro.experiments.common import ExperimentSettings, GridCell, measure_grid
from repro.workloads.registry import get_workload

SUBJECTS = ("mindagent", "coela", "combo")
AGENT_COUNTS = (2, 4, 6, 8, 10, 12)
DIFFICULTIES = ("easy", "medium", "hard")


@dataclass(frozen=True)
class ScaleCell:
    workload: str
    difficulty: str
    n_agents: int
    success_rate: float
    total_minutes: float
    llm_calls: float


@dataclass(frozen=True)
class Fig7Result:
    cells: list[ScaleCell]

    def series(self, workload: str, difficulty: str) -> list[ScaleCell]:
        return sorted(
            (
                cell
                for cell in self.cells
                if cell.workload == workload and cell.difficulty == difficulty
            ),
            key=lambda cell: cell.n_agents,
        )


def grid() -> list[GridCell]:
    """One cell per (subject, difficulty, team size)."""
    return [
        GridCell(config=get_workload(subject).config, difficulty=difficulty, n_agents=n_agents)
        for subject, difficulty, n_agents in product(SUBJECTS, DIFFICULTIES, AGENT_COUNTS)
    ]


def summarize(aggregates: list[AggregateResult]) -> Fig7Result:
    cases = product(SUBJECTS, DIFFICULTIES, AGENT_COUNTS)
    return Fig7Result(
        cells=[
            ScaleCell(
                workload=subject,
                difficulty=difficulty,
                n_agents=n_agents,
                success_rate=aggregate.success_rate,
                total_minutes=aggregate.mean_sim_minutes,
                llm_calls=aggregate.mean_llm_calls,
            )
            for (subject, difficulty, n_agents), aggregate in zip(cases, aggregates)
        ]
    )


def run(settings: ExperimentSettings | None = None) -> Fig7Result:
    settings = settings or ExperimentSettings()
    return summarize(measure_grid(grid(), settings))


def render(result: Fig7Result) -> str:
    blocks = []
    for subject in SUBJECTS:
        success_series = {}
        latency_series = {}
        for difficulty in DIFFICULTIES:
            cells = result.series(subject, difficulty)
            success_series[difficulty] = [100.0 * cell.success_rate for cell in cells]
            latency_series[difficulty] = [cell.total_minutes for cell in cells]
        paradigm = get_workload(subject).config.paradigm
        blocks.append(
            format_series(
                list(AGENT_COUNTS),
                success_series,
                title=f"Fig 7 ({subject}, {paradigm}): success rate (%) vs #agents",
                x_label="agents",
                precision=0,
            )
        )
        blocks.append(
            format_series(
                list(AGENT_COUNTS),
                latency_series,
                title=f"Fig 7 ({subject}, {paradigm}): task latency (min) vs #agents",
                x_label="agents",
                precision=1,
            )
        )
    blocks.append(
        "(paper: centralized success drops sharply but latency scales mildly; "
        "decentralized latency explodes and success peaks then declines)"
    )
    return "\n\n".join(blocks)
