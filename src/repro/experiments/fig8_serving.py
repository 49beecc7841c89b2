"""Figure 8: batched LLM serving across paradigms and team sizes (Rec. 1).

The paper's first recommendation is efficient LLM serving via request
batching.  With serving factored into a scheduler
(:mod:`repro.llm.scheduler`), that recommendation becomes measurable as
a sweep: for each (paradigm, team size) cell, run the same seeded trials
under per-call, batched, and continuous serving and compare end-to-end
latency, the batch occupancy the paradigm's phases expose, the
continuous engine's queueing delay, and — the layer's invariant — task
success and token totals, which must not move.

Shapes to expect:

- decentralized (CoELA): per-agent plans, composes, selections, and
  reflections all batch at the team size — occupancy tracks ``n`` and
  the latency gap widens with the team;
- hybrid (HMAS): worker feedback batches, the two central calls cannot —
  a middling win;
- centralized (MindAgent): one joint call per step, occupancy pinned at
  1 — batching buys nothing, which is itself the paper's point that the
  paradigm already amortizes serving.

The continuous column adds the queueing dimension: one engine per
(profile, deployment) pair serves the whole step's requests in arrival
order, so occupancy can only match or beat the batched column, and once
a team exposes more concurrency than the engine's admission cap (8)
admits, the queue-delay column turns nonzero: requests the cap excludes
wait for the next batch (docs/serving.md walks through the model).

Each arm is the workload's config with ``optimizations.serve_mode`` set
to the arm's mode (``with_optimizations(serve_mode=mode)``), the only
input that selects a serving mode.  The per-call arm equals the
workload's own config, whose mode is ``percall``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.analysis.report import checkmark, format_series, format_table
from repro.core.metrics import AggregateResult
from repro.experiments.common import GridCell
from repro.workloads.registry import get_workload

SUBJECTS = ("mindagent", "coela", "hmas")
AGENT_COUNTS = (2, 4, 6, 8)
MODES = ("percall", "batched", "continuous")


@dataclass(frozen=True)
class ServingCell:
    """One (workload, team size) comparison of the three serving modes."""

    workload: str
    paradigm: str
    n_agents: int
    percall_minutes: float
    batched_minutes: float
    continuous_minutes: float
    occupancy: float
    continuous_occupancy: float
    queue_delay: float
    inflight_joins: float
    outcomes_invariant: bool

    @property
    def speedup(self) -> float:
        if self.batched_minutes <= 0.0:
            return 1.0
        return self.percall_minutes / self.batched_minutes

    @property
    def continuous_speedup(self) -> float:
        if self.continuous_minutes <= 0.0:
            return 1.0
        return self.percall_minutes / self.continuous_minutes


@dataclass(frozen=True)
class Fig8Result:
    cells: list[ServingCell]

    def series(self, workload: str) -> list[ServingCell]:
        return sorted(
            (cell for cell in self.cells if cell.workload == workload),
            key=lambda cell: cell.n_agents,
        )


def grid() -> list[GridCell]:
    """One cell per (subject, team size, serving mode), modes innermost."""
    return [
        GridCell(
            config=get_workload(subject).config.with_optimizations(serve_mode=mode),
            n_agents=n_agents,
        )
        for subject, n_agents, mode in product(SUBJECTS, AGENT_COUNTS, MODES)
    ]


def summarize(aggregates: list[AggregateResult]) -> Fig8Result:
    width = len(MODES)
    cells = []
    for index, (subject, n_agents) in enumerate(product(SUBJECTS, AGENT_COUNTS)):
        percall = aggregates[width * index]
        batched = aggregates[width * index + 1]
        continuous = aggregates[width * index + 2]
        invariant = all(
            served.success_rate == percall.success_rate
            and served.mean_steps == percall.mean_steps
            and served.mean_llm_calls == percall.mean_llm_calls
            and served.mean_prompt_tokens == percall.mean_prompt_tokens
            and served.mean_messages_sent == percall.mean_messages_sent
            for served in (batched, continuous)
        )
        cells.append(
            ServingCell(
                workload=subject,
                paradigm=get_workload(subject).config.paradigm,
                n_agents=n_agents,
                percall_minutes=percall.mean_sim_minutes,
                batched_minutes=batched.mean_sim_minutes,
                continuous_minutes=continuous.mean_sim_minutes,
                occupancy=batched.mean_batch_occupancy,
                continuous_occupancy=continuous.mean_batch_occupancy,
                queue_delay=continuous.mean_queue_delay,
                inflight_joins=continuous.mean_inflight_joins,
                outcomes_invariant=invariant,
            )
        )
    return Fig8Result(cells=cells)


def render(result: Fig8Result) -> str:
    blocks = []
    rows = []
    for cell in result.cells:
        rows.append(
            (
                cell.workload,
                cell.paradigm,
                cell.n_agents,
                f"{cell.percall_minutes:.1f}",
                f"{cell.batched_minutes:.1f}",
                f"{cell.continuous_minutes:.1f}",
                f"{cell.speedup:.2f}x",
                f"{cell.continuous_speedup:.2f}x",
                f"{cell.occupancy:.2f}",
                f"{cell.continuous_occupancy:.2f}",
                f"{cell.queue_delay:.1f}",
                checkmark(cell.outcomes_invariant),
            )
        )
    blocks.append(
        format_table(
            (
                "workload",
                "paradigm",
                "agents",
                "percall (min)",
                "batched (min)",
                "contin. (min)",
                "speedup",
                "c-speedup",
                "occupancy",
                "c-occupancy",
                "queue (s)",
                "outcomes ==",
            ),
            rows,
            title="Fig 8: serving modes (Rec. 1) vs per-call dispatch",
        )
    )
    for subject in SUBJECTS:
        series = result.series(subject)
        blocks.append(
            format_series(
                [cell.n_agents for cell in series],
                {
                    "percall": [cell.percall_minutes for cell in series],
                    "batched": [cell.batched_minutes for cell in series],
                    "continuous": [cell.continuous_minutes for cell in series],
                    "occupancy": [cell.occupancy for cell in series],
                    "queue_delay": [cell.queue_delay for cell in series],
                },
                title=(
                    f"Fig 8 ({subject}, {series[0].paradigm}): "
                    "task latency (min), batch occupancy, queue delay vs #agents"
                ),
                x_label="agents",
                precision=1,
            )
        )
    blocks.append(
        "(serving modes change modeled latency only: success/token columns "
        "are asserted identical per cell; occupancy shows how much phase "
        "concurrency each paradigm exposes — decentralized tracks the team "
        "size, centralized is pinned at its single joint call.  The "
        "continuous columns add the queueing dimension: cross-phase engine "
        "queues lift occupancy, and once a team exposes more concurrency "
        "than the engine's admission cap admits, requests wait, and the "
        "queue (s) column prices that wait)"
    )
    return "\n\n".join(blocks)
