"""Figure 6: prompt token length over time steps.

Track per-agent prompt token counts of the planning and message LLM calls
across an episode for RoCo, MindAgent, and CoELA.

Paper shapes to preserve: token length grows as the task progresses
(repeated retrieval + concatenated dialogue); multi-agent dialogue makes
growth steeper; plan prompts dominate message prompts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_series
from repro.analysis.series import growth_slope, token_series_by_agent_purpose
from repro.core.metrics import EpisodeResult
from repro.experiments.common import ExperimentSettings, GridCell, episode_grid
from repro.workloads.registry import get_workload

SUBJECTS = ("roco", "mindagent", "coela")


@dataclass(frozen=True)
class TokenTrace:
    workload: str
    series: dict[str, list[tuple[int, int]]]  # "agent:purpose" -> [(step, tokens)]
    slopes: dict[str, float]


@dataclass(frozen=True)
class Fig6Result:
    traces: list[TokenTrace]


def grid() -> list[GridCell]:
    """One cell per traced subject; the figure reads one raw episode each."""
    return [GridCell(config=get_workload(subject).config) for subject in SUBJECTS]


def summarize(episodes: list[EpisodeResult]) -> Fig6Result:
    """The figure from one episode per :func:`grid` cell."""
    traces = []
    for subject, episode in zip(SUBJECTS, episodes):
        series = token_series_by_agent_purpose(episode)
        slopes = {name: growth_slope(points) for name, points in series.items()}
        traces.append(TokenTrace(workload=subject, series=series, slopes=slopes))
    return Fig6Result(traces=traces)


def run(settings: ExperimentSettings | None = None) -> Fig6Result:
    settings = settings or ExperimentSettings()
    return summarize(episode_grid(grid(), settings))


def render(result: Fig6Result) -> str:
    blocks = []
    for trace in result.traces:
        steps = sorted(
            {step for points in trace.series.values() for step, _tokens in points}
        )
        table_series = {}
        for name, points in sorted(trace.series.items()):
            by_step = dict(points)
            table_series[name] = [float(by_step.get(step, 0)) for step in steps]
        blocks.append(
            format_series(
                steps,
                table_series,
                title=f"Fig 6 ({trace.workload}): prompt tokens per LLM call over time",
                x_label="step",
                precision=0,
            )
        )
        slope_text = ", ".join(
            f"{name}: {slope:+.1f} tok/step" for name, slope in sorted(trace.slopes.items())
        )
        blocks.append(f"token growth slopes — {slope_text}")
    blocks.append("(paper: token length increases as tasks progress)")
    return "\n\n".join(blocks)
