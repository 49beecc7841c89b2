"""Per-deployment serving cost model: dollars per token, by profile.

The paper frames generative embodied systems as a *serving cost*
problem as much as a latency one, so the suite prints a cost footer per
figure.  This module is its accounting basis: a flat rate table in
**dollars per million tokens** (prompt, output) for every registered
:mod:`~repro.llm.profiles` profile.

API model rates follow public per-token pricing; local models are
amortized GPU-time expressed on the same per-token axis (so one footer
covers mixed deployments).  The absolute numbers are calibration constants
in the same spirit as the latency profiles — stable, plausible, and
deterministic — not live price quotes.

Deployment transforms (``+awq`` / ``+mlc`` name suffixes) serve the
*same weights* on the same hardware, so they bill at the base model's
rate; :func:`token_rates` strips the suffixes before lookup.

>>> token_rates("gpt-4")
(30.0, 60.0)
>>> token_rates("llama-3-8b+awq") == token_rates("llama-3-8b")
True
>>> round(tokens_cost("gpt-4", 1_000_000, 100_000), 2)
36.0
"""

from __future__ import annotations

from collections.abc import Mapping

#: Dollars per million (prompt, output) tokens per registered profile.
RATES_PER_MTOK: dict[str, tuple[float, float]] = {
    "gpt-4": (30.0, 60.0),
    "llama-3-70b": (0.90, 0.90),
    "llama-13b": (0.20, 0.25),
    "llama-3-8b": (0.10, 0.10),
    "llama-7b-ft": (0.10, 0.10),
    "llava-8b": (0.12, 0.12),
    "llava-7b": (0.10, 0.10),
    "clip-selector": (0.01, 0.01),
}

#: Fallback for profiles without a table entry (e.g. test stand-ins):
#: a mid-range local-serving rate, so cost reports degrade gracefully
#: instead of raising mid-suite.
DEFAULT_RATE: tuple[float, float] = (0.50, 1.50)

#: Deployment-transform suffixes that do not change the billed model.
_TRANSFORM_SUFFIXES = ("+awq", "+mlc")


def base_model_name(name: str) -> str:
    """Strip deployment-transform suffixes down to the billed model."""
    stripped = name
    changed = True
    while changed:
        changed = False
        for suffix in _TRANSFORM_SUFFIXES:
            if stripped.endswith(suffix):
                stripped = stripped[: -len(suffix)]
                changed = True
    return stripped


def token_rates(name: str) -> tuple[float, float]:
    """(prompt, output) dollars per million tokens for a profile name."""
    return RATES_PER_MTOK.get(base_model_name(name), DEFAULT_RATE)


def tokens_cost(name: str, prompt_tokens: int, output_tokens: int) -> float:
    """Dollar cost of serving the given token volume on one profile."""
    prompt_rate, output_rate = token_rates(name)
    return (prompt_tokens * prompt_rate + output_tokens * output_rate) / 1e6


def cost_breakdown(
    deployment_tokens: Mapping[str, tuple[int, int]],
) -> dict[str, float]:
    """Per-deployment dollar cost of a token-accounting map.

    ``deployment_tokens`` maps effective profile name to total
    ``(prompt_tokens, output_tokens)`` — the shape
    :class:`~repro.core.metrics.EpisodeResult.deployment_tokens` and its
    aggregate carry.  Keys come back in sorted order so downstream
    renders and equality checks are deterministic.
    """
    return {
        name: tokens_cost(name, prompt, output)
        for name, (prompt, output) in sorted(deployment_tokens.items())
    }


def total_cost(deployment_tokens: Mapping[str, tuple[int, int]]) -> float:
    """Total dollar cost of a token-accounting map (sorted-key sum)."""
    return sum(cost_breakdown(deployment_tokens).values())
