"""Token-series extraction for the prompt-growth analysis (Fig. 6)."""

from __future__ import annotations

from repro.core.metrics import EpisodeResult


def token_series_by_agent_purpose(result: EpisodeResult) -> dict[str, list[tuple[int, int]]]:
    """Per (agent, purpose) series of (step, prompt_tokens).

    Fig. 6's per-agent plan/message token traces, paired up from the flat
    :attr:`~repro.core.metrics.EpisodeResult.prompt_series`; each point
    is the largest prompt of the step (retries and dialogue rounds make
    several) — that is the context-growth signal.
    """
    return {
        name: list(zip(flat[0::2], flat[1::2]))
        for name, flat in result.prompt_series.items()
    }


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
