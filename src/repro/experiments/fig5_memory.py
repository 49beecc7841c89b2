"""Figure 5: memory-module capacity analysis.

Sweep the memory retention window (capacity in #steps) for JARVIS-1
(single-agent), MindAgent (centralized), and CoELA (decentralized) across
task difficulties, measuring success rate, steps, and per-step retrieval
latency.

Paper shapes to preserve: success rises / steps fall with capacity,
saturating; very large capacities decline slightly (memory
inconsistency); harder tasks need more memory; retrieval latency grows
with capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.analysis.report import format_series
from repro.core.clock import ModuleName
from repro.core.metrics import AggregateResult
from repro.experiments.common import ExperimentSettings, GridCell, measure_grid
from repro.envs.tasks import default_horizon
from repro.workloads.registry import get_workload

SUBJECTS = ("jarvis-1", "mindagent", "coela")
CAPACITIES = (2, 5, 10, 20, 30, 60, 90)
DIFFICULTIES = ("easy", "medium", "hard")

#: The sweep runs under a tightened step budget so that the extra steps a
#: starved memory costs actually convert into failures — the paper's
#: Fig. 5 tasks likewise bind their step limits.
HORIZON_SCALE = 0.82


@dataclass(frozen=True)
class MemoryCell:
    workload: str
    difficulty: str
    capacity: int
    success_rate: float
    mean_steps: float
    retrieval_seconds_per_step: float


@dataclass(frozen=True)
class Fig5Result:
    cells: list[MemoryCell]

    def series(
        self, workload: str, difficulty: str
    ) -> list[MemoryCell]:
        return sorted(
            (
                cell
                for cell in self.cells
                if cell.workload == workload and cell.difficulty == difficulty
            ),
            key=lambda cell: cell.capacity,
        )


def grid() -> list[GridCell]:
    """One cell per (subject, difficulty, capacity), under the tightened
    step budget."""
    cells = []
    for subject, difficulty, capacity in product(SUBJECTS, DIFFICULTIES, CAPACITIES):
        base_config = get_workload(subject).config
        horizon = int(HORIZON_SCALE * default_horizon(base_config.env_name, difficulty))
        cells.append(
            GridCell(
                config=base_config.with_memory_capacity(capacity),
                difficulty=difficulty,
                horizon=horizon,
            )
        )
    return cells


def summarize(aggregates: list[AggregateResult]) -> Fig5Result:
    cells = []
    cases = product(SUBJECTS, DIFFICULTIES, CAPACITIES)
    for (subject, difficulty, capacity), aggregate in zip(cases, aggregates):
        retrieval = aggregate.module_seconds.get(ModuleName.MEMORY, 0.0)
        cells.append(
            MemoryCell(
                workload=subject,
                difficulty=difficulty,
                capacity=capacity,
                success_rate=aggregate.success_rate,
                mean_steps=aggregate.mean_steps,
                retrieval_seconds_per_step=retrieval / max(1.0, aggregate.mean_steps),
            )
        )
    return Fig5Result(cells=cells)


def run(settings: ExperimentSettings) -> Fig5Result:
    return summarize(measure_grid(grid(), settings))


def render(result: Fig5Result) -> str:
    blocks = []
    for subject in SUBJECTS:
        success_series = {}
        steps_series = {}
        retrieval_series = {}
        for difficulty in DIFFICULTIES:
            cells = result.series(subject, difficulty)
            success_series[difficulty] = [100.0 * cell.success_rate for cell in cells]
            steps_series[difficulty] = [cell.mean_steps for cell in cells]
            retrieval_series[difficulty] = [
                cell.retrieval_seconds_per_step for cell in cells
            ]
        blocks.append(
            format_series(
                list(CAPACITIES),
                success_series,
                title=f"Fig 5 ({subject}): success rate (%) vs memory capacity",
                x_label="capacity",
                precision=0,
            )
        )
        blocks.append(
            format_series(
                list(CAPACITIES),
                steps_series,
                title=f"Fig 5 ({subject}): average steps vs memory capacity",
                x_label="capacity",
                precision=1,
            )
        )
        blocks.append(
            format_series(
                list(CAPACITIES),
                retrieval_series,
                title=f"Fig 5 ({subject}): memory retrieval seconds per step",
                x_label="capacity",
                precision=3,
            )
        )
    blocks.append(
        "(paper: success rises then slightly declines at very large capacity; "
        "steps fall; retrieval time grows with capacity)"
    )
    return "\n\n".join(blocks)
