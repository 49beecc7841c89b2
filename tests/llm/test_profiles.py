"""Tests for LLM profiles: registry, latency model, focus curve."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import UnknownModelError
from repro.llm.profiles import LLMProfile, get_profile


class TestRegistry:
    def test_expected_profiles_present(self):
        for expected in ("gpt-4", "llama-3-8b", "llama-13b", "llava-7b", "llama-7b-ft"):
            assert get_profile(expected).name == expected

    def test_unknown_profile_raises(self):
        with pytest.raises(UnknownModelError):
            get_profile("gpt-17")

    def test_get_returns_same_object(self):
        assert get_profile("gpt-4") is get_profile("gpt-4")


class TestValidation:
    def test_bad_deployment(self):
        with pytest.raises(ValueError):
            LLMProfile(
                name="x", deployment="cloud", overhead_s=0.1,
                prefill_tps=100, decode_tps=10, reasoning=0.5,
                format_compliance=0.9, context_window=1000,
                focus_midpoint=100, focus_slope=10,
            )

    def test_bad_reasoning(self):
        with pytest.raises(ValueError):
            LLMProfile(
                name="x", deployment="local", overhead_s=0.1,
                prefill_tps=100, decode_tps=10, reasoning=1.5,
                format_compliance=0.9, context_window=1000,
                focus_midpoint=100, focus_slope=10,
            )


class TestLatencyModel:
    def test_latency_components(self):
        profile = get_profile("gpt-4")
        latency = profile.call_latency(prompt_tokens=3200, output_tokens=30)
        expected = profile.overhead_s + 3200 / profile.prefill_tps + 30 / profile.decode_tps
        assert latency == pytest.approx(expected)

    def test_gpt4_plan_call_in_paper_range(self):
        """A typical planning call should land in the seconds regime."""
        profile = get_profile("gpt-4")
        latency = profile.call_latency(prompt_tokens=1500, output_tokens=130)
        assert 3.0 < latency < 10.0

    def test_local_model_faster_per_call(self):
        gpt = get_profile("gpt-4")
        llama = get_profile("llama-3-8b")
        assert llama.call_latency(1000, 130) < gpt.call_latency(1000, 130)

    @given(
        prompt=st.integers(min_value=0, max_value=30000),
        output=st.integers(min_value=0, max_value=2000),
    )
    def test_latency_monotone(self, prompt, output):
        profile = get_profile("gpt-4")
        base = profile.call_latency(prompt, output)
        assert profile.call_latency(prompt + 100, output) >= base
        assert profile.call_latency(prompt, output + 10) >= base


class TestFocusCurve:
    def test_focus_near_one_for_small_prompts(self):
        assert get_profile("gpt-4").context_focus(200) > 0.95

    def test_focus_declines_for_huge_prompts(self):
        profile = get_profile("gpt-4")
        assert profile.context_focus(20000) < 0.1

    def test_small_model_dilutes_earlier(self):
        tokens = 3000
        assert get_profile("llama-3-8b").context_focus(tokens) < get_profile(
            "gpt-4"
        ).context_focus(tokens)

    @given(tokens=st.integers(min_value=0, max_value=50000))
    def test_focus_bounded(self, tokens):
        focus = get_profile("gpt-4").context_focus(tokens)
        assert 0.0 < focus <= 1.0 + 1e-9

    @given(tokens=st.integers(min_value=0, max_value=40000))
    def test_focus_monotone_decreasing(self, tokens):
        profile = get_profile("llama-13b")
        assert profile.context_focus(tokens + 500) <= profile.context_focus(tokens) + 1e-12


class TestCapabilityOrdering:
    def test_reasoning_ordering_matches_model_scale(self):
        """The capability ladder the paper's Fig. 4 relies on."""
        gpt = get_profile("gpt-4").reasoning
        l70 = get_profile("llama-3-70b").reasoning
        l13 = get_profile("llama-13b").reasoning
        l8 = get_profile("llama-3-8b").reasoning
        assert gpt > l70 > l13 > l8

    def test_with_returns_modified_copy(self):
        profile = get_profile("gpt-4")
        faster = profile.with_(decode_tps=100.0)
        assert faster.decode_tps == 100.0
        assert profile.decode_tps != 100.0
