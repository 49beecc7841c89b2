"""Tests for the per-deployment serving cost model."""

import pytest

from repro.llm.costs import (
    DEFAULT_RATE,
    RATES_PER_MTOK,
    base_model_name,
    cost_breakdown,
    token_rates,
    tokens_cost,
    total_cost,
)
#: The profiles shipped in ``llm/profiles.py`` (tests may register
#: extra stand-ins at runtime; those fall back to ``DEFAULT_RATE``).
BUILTIN_PROFILES = (
    "clip-selector",
    "gpt-4",
    "llama-13b",
    "llama-3-70b",
    "llama-3-8b",
    "llama-7b-ft",
    "llava-7b",
    "llava-8b",
)


class TestRates:
    def test_every_builtin_profile_has_a_rate(self):
        from repro.llm.profiles import get_profile

        for name in BUILTIN_PROFILES:
            assert get_profile(name).name == name  # really registered
            assert base_model_name(name) in RATES_PER_MTOK, name

    def test_transform_suffixes_bill_as_base_model(self):
        assert base_model_name("llama-3-8b+awq") == "llama-3-8b"
        assert base_model_name("llama-3-8b+awq+mlc") == "llama-3-8b"
        assert token_rates("llama-13b+mlc") == token_rates("llama-13b")

    def test_unknown_profile_uses_default_rate(self):
        assert token_rates("totally-novel-model") == DEFAULT_RATE

    def test_api_model_prices_above_local(self):
        gpt_prompt, gpt_output = token_rates("gpt-4")
        local_prompt, local_output = token_rates("llama-3-8b")
        assert gpt_prompt > local_prompt
        assert gpt_output > local_output


class TestCosts:
    def test_tokens_cost_is_per_million(self):
        assert tokens_cost("gpt-4", 1_000_000, 0) == pytest.approx(30.0)
        assert tokens_cost("gpt-4", 0, 1_000_000) == pytest.approx(60.0)
        assert tokens_cost("gpt-4", 0, 0) == 0.0

    def test_breakdown_sorted_and_summing(self):
        usage = {"llama-3-8b": (1000, 100), "gpt-4": (2000, 200)}
        breakdown = cost_breakdown(usage)
        assert list(breakdown) == ["gpt-4", "llama-3-8b"]
        assert total_cost(usage) == pytest.approx(sum(breakdown.values()))

    def test_empty_usage_costs_nothing(self):
        assert cost_breakdown({}) == {}
        assert total_cost({}) == 0.0
