"""Model profiles for the simulated LLM substrate.

Each profile captures the two axes the paper measures: a *latency* model
(per-call overhead, prefill throughput, decode throughput — API models pay
network overhead and slow decode, local models are fast per token but less
capable) and a *capability* model (reasoning quality, format compliance,
context-dilution curve).  Numbers are calibrated so the paper's headline
figures emerge: GPT-4 planning calls land in the 4-8 s range, Llama-3-8B
calls are ~2-3x faster per inference but substantially less reliable.

Capability values are synthetic calibration constants, not claims about
the real models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.errors import UnknownModelError


@dataclass(frozen=True)
class LLMProfile:
    """Latency + capability description of one language model deployment."""

    name: str
    deployment: str  # "api" | "local"
    overhead_s: float  # fixed per-call latency (network RTT / launch)
    prefill_tps: float  # prompt tokens processed per second
    decode_tps: float  # output tokens generated per second
    reasoning: float  # base probability of a correct decision
    format_compliance: float  # probability one attempt parses
    context_window: int
    focus_midpoint: float  # prompt tokens at which dilution is half-way
    focus_slope: float  # softness of the dilution transition

    def __post_init__(self) -> None:
        if self.deployment not in ("api", "local"):
            raise ValueError(f"deployment must be api|local: {self.deployment}")
        if not 0.0 < self.reasoning <= 1.0:
            raise ValueError(f"reasoning must be in (0, 1]: {self.reasoning}")
        if not 0.0 < self.format_compliance <= 1.0:
            raise ValueError(
                f"format_compliance must be in (0, 1]: {self.format_compliance}"
            )

    def call_latency(self, prompt_tokens: int, output_tokens: int) -> float:
        """Seconds for one inference call."""
        return (
            self.overhead_s
            + prompt_tokens / self.prefill_tps
            + output_tokens / self.decode_tps
        )

    def context_focus(self, prompt_tokens: int) -> float:
        """Attention-dilution factor in (0, 1].

        A normalized logistic: ~1.0 for short prompts, decaying past
        ``focus_midpoint``.  This is the mechanism behind the paper's
        Takeaway 5 ("longer prompts dilute relevant information") and the
        memory-inconsistency decline at very large capacities (Fig. 5).
        """
        value = 1.0 / (1.0 + math.exp((prompt_tokens - self.focus_midpoint) / self.focus_slope))
        at_zero = 1.0 / (1.0 + math.exp(-self.focus_midpoint / self.focus_slope))
        return value / at_zero

    def with_(self, **changes: float) -> "LLMProfile":
        """Return a modified copy (used by deployment optimizations)."""
        return replace(self, **changes)


_PROFILES: dict[str, LLMProfile] = {}


def register_profile(profile: LLMProfile) -> None:
    if profile.name in _PROFILES:
        raise ValueError(f"profile already registered: {profile.name}")
    _PROFILES[profile.name] = profile


def get_profile(name: str) -> LLMProfile:
    try:
        return _PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(_PROFILES))
        raise UnknownModelError(f"unknown LLM profile {name!r}; known: {known}") from None


register_profile(
    LLMProfile(
        name="gpt-4",
        deployment="api",
        overhead_s=0.85,
        prefill_tps=3200.0,
        decode_tps=30.0,
        reasoning=0.94,
        format_compliance=0.99,
        context_window=32768,
        focus_midpoint=6500.0,
        focus_slope=1600.0,
    )
)

register_profile(
    LLMProfile(
        name="llama-3-70b",
        deployment="local",
        overhead_s=0.15,
        prefill_tps=420.0,
        decode_tps=13.0,
        reasoning=0.86,
        format_compliance=0.97,
        context_window=8192,
        focus_midpoint=4200.0,
        focus_slope=1200.0,
    )
)

register_profile(
    LLMProfile(
        name="llama-13b",
        deployment="local",
        overhead_s=0.08,
        prefill_tps=1500.0,
        decode_tps=32.0,
        reasoning=0.76,
        format_compliance=0.94,
        context_window=4096,
        focus_midpoint=2900.0,
        focus_slope=900.0,
    )
)

register_profile(
    LLMProfile(
        name="llama-3-8b",
        deployment="local",
        overhead_s=0.06,
        prefill_tps=2400.0,
        decode_tps=46.0,
        reasoning=0.58,
        format_compliance=0.88,
        context_window=8192,
        focus_midpoint=2200.0,
        focus_slope=750.0,
    )
)

#: EmbodiedGPT's domain-fine-tuned Llama-7B: small but specialised, so its
#: in-domain reasoning exceeds a generic model of the same size.
register_profile(
    LLMProfile(
        name="llama-7b-ft",
        deployment="local",
        overhead_s=0.05,
        prefill_tps=2600.0,
        decode_tps=50.0,
        reasoning=0.80,
        format_compliance=0.95,
        context_window=4096,
        focus_midpoint=2500.0,
        focus_slope=800.0,
    )
)

register_profile(
    LLMProfile(
        name="llava-8b",
        deployment="local",
        overhead_s=0.09,
        prefill_tps=2100.0,
        decode_tps=42.0,
        reasoning=0.72,
        format_compliance=0.93,
        context_window=8192,
        focus_midpoint=2700.0,
        focus_slope=850.0,
    )
)

register_profile(
    LLMProfile(
        name="llava-7b",
        deployment="local",
        overhead_s=0.08,
        prefill_tps=2200.0,
        decode_tps=44.0,
        reasoning=0.70,
        format_compliance=0.92,
        context_window=4096,
        focus_midpoint=2500.0,
        focus_slope=800.0,
    )
)

#: DEPS's CLIP-based plan selector: not a text generator — near-zero decode
#: cost, moderate discrimination ability, used only for reflection.
register_profile(
    LLMProfile(
        name="clip-selector",
        deployment="local",
        overhead_s=0.03,
        prefill_tps=20000.0,
        decode_tps=2000.0,
        reasoning=0.70,
        format_compliance=1.0,
        context_window=77,
        focus_midpoint=3000.0,
        focus_slope=1000.0,
    )
)
