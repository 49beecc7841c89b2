"""Figure 7: multi-agent scalability analysis.

Sweep the number of agents (2-12) across task difficulties for one
centralized system (MindAgent) and two decentralized systems (CoELA,
COMBO), measuring task success rate and end-to-end latency.

Paper shapes to preserve:
- centralized: success declines sharply with agent count (joint-planning
  complexity) while latency scales mildly (one call per step);
- decentralized: success rises then falls (collaboration dilution);
  latency explodes super-linearly (per-agent calls × growing dialogue).

As the longest sweep in the suite, the CLI entry point runs with the
coarse clock (:func:`~repro.experiments.common.sweep_settings`): this
sweep reads only finalized aggregates, never per-span records, and
coarse totals are byte-identical.  Set ``REPRO_CLOCK=span`` to force
per-span recording.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_series
from repro.experiments.common import (
    ExperimentSettings,
    GridCell,
    measure_grid,
    sweep_settings,
)
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


def run(settings: ExperimentSettings | None = None) -> Fig7Result:
    settings = settings or ExperimentSettings()
    cases = [
        (subject, difficulty, n_agents)
        for subject in SUBJECTS
        for difficulty in DIFFICULTIES
        for n_agents in AGENT_COUNTS
    ]
    grid = [
        GridCell(
            config=get_workload(subject).config,
            difficulty=difficulty,
            n_agents=n_agents,
        )
        for subject, difficulty, n_agents in cases
    ]
    cells = [
        ScaleCell(
            workload=subject,
            difficulty=difficulty,
            n_agents=n_agents,
            success_rate=aggregate.success_rate,
            total_minutes=aggregate.mean_sim_minutes,
            llm_calls=aggregate.mean_llm_calls,
        )
        for (subject, difficulty, n_agents), aggregate in zip(
            cases, measure_grid(grid, settings)
        )
    ]
    return Fig7Result(cells=cells)


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


def main() -> None:
    print(render(run(sweep_settings())))


if __name__ == "__main__":
    main()
