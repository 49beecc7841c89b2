"""Tests for deployment options (AWQ, MLC) and batch pricing."""

import pytest

from repro.llm.deployment import (
    AWQ_DECODE_SPEEDUP,
    DeploymentOptions,
    MLC_DECODE_SPEEDUP,
)
from repro.llm.profiles import get_profile


class TestValidation:
    def test_unknown_quantization(self):
        with pytest.raises(ValueError):
            DeploymentOptions(quantization="int3")

    def test_unknown_runtime(self):
        with pytest.raises(ValueError):
            DeploymentOptions(runtime="tvm")


class TestQuantization:
    def test_awq_speeds_decode(self):
        base = get_profile("llama-3-8b")
        effective = DeploymentOptions(quantization="awq").effective_profile(base)
        assert effective.decode_tps == pytest.approx(base.decode_tps * AWQ_DECODE_SPEEDUP)

    def test_awq_costs_reasoning(self):
        base = get_profile("llama-3-8b")
        effective = DeploymentOptions(quantization="awq").effective_profile(base)
        assert effective.reasoning < base.reasoning

    def test_awq_rejected_for_api_models(self):
        with pytest.raises(ValueError):
            DeploymentOptions(quantization="awq").effective_profile(get_profile("gpt-4"))

    def test_name_tagged(self):
        effective = DeploymentOptions(quantization="awq").effective_profile(
            get_profile("llama-3-8b")
        )
        assert "awq" in effective.name


class TestRuntime:
    def test_mlc_speeds_decode_without_quality_cost(self):
        base = get_profile("llama-3-8b")
        effective = DeploymentOptions(runtime="mlc").effective_profile(base)
        assert effective.decode_tps == pytest.approx(base.decode_tps * MLC_DECODE_SPEEDUP)
        assert effective.reasoning == base.reasoning

    def test_mlc_rejected_for_api(self):
        with pytest.raises(ValueError):
            DeploymentOptions(runtime="mlc").effective_profile(get_profile("gpt-4"))

    def test_stacking_awq_and_mlc(self):
        base = get_profile("llama-3-8b")
        effective = DeploymentOptions(quantization="awq", runtime="mlc").effective_profile(base)
        assert effective.decode_tps == pytest.approx(
            base.decode_tps * AWQ_DECODE_SPEEDUP * MLC_DECODE_SPEEDUP
        )


class TestBatching:
    def test_batch_amortizes_overhead(self):
        profile = get_profile("llava-7b")
        options = DeploymentOptions()
        batched = options.batched_call_latency(profile, [500] * 4, [100] * 4)
        serial = 4 * profile.call_latency(500, 100)
        assert batched < serial

    def test_empty_batch_zero_latency(self):
        options = DeploymentOptions()
        assert options.batched_call_latency(get_profile("llava-7b"), [], []) == 0.0

    def test_mismatched_lists_rejected(self):
        options = DeploymentOptions()
        with pytest.raises(ValueError):
            options.batched_call_latency(get_profile("llava-7b"), [100], [])

    def test_decode_penalty_grows_with_batch(self):
        profile = get_profile("llava-7b")
        options = DeploymentOptions()
        two = options.batched_call_latency(profile, [100, 100], [50, 50])
        eight = options.batched_call_latency(profile, [100] * 8, [50] * 8)
        assert eight > two
