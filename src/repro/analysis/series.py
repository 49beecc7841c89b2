"""Token-series extraction for the prompt-growth analysis (Fig. 6)."""

from __future__ import annotations

from collections import defaultdict

from repro.core.metrics import EpisodeResult


def token_series_by_agent_purpose(
    result: EpisodeResult,
    purposes: tuple[str, ...] = ("plan", "message"),
) -> dict[str, list[tuple[int, int]]]:
    """Per (agent, purpose) series of (step, prompt_tokens).

    Matches Fig. 6's per-agent plan/message token traces.  When an agent
    makes several calls of one purpose in a step (retries, dialogue
    rounds), the largest prompt is kept — that is the context-growth
    signal.
    """
    best: dict[tuple[str, str, int], int] = defaultdict(int)
    for sample in result.token_samples:
        if sample.purpose not in purposes:
            continue
        key = (sample.agent, sample.purpose, sample.step)
        best[key] = max(best[key], sample.prompt_tokens)
    series: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for (agent, purpose, step), tokens in sorted(best.items()):
        series[f"{agent}:{purpose}"].append((step, tokens))
    return dict(series)


def growth_slope(series: list[tuple[int, int]]) -> float:
    """Least-squares slope of tokens over steps (tokens/step).

    Positive slope is the paper's Takeaway 5; used by tests and the
    Fig. 6 bench to assert growth without eyeballing plots.
    """
    if len(series) < 2:
        return 0.0
    n = len(series)
    mean_x = sum(step for step, _tokens in series) / n
    mean_y = sum(tokens for _step, tokens in series) / n
    numerator = sum(
        (step - mean_x) * (tokens - mean_y) for step, tokens in series
    )
    denominator = sum((step - mean_x) ** 2 for step, _tokens in series)
    if denominator == 0:
        return 0.0
    return numerator / denominator
