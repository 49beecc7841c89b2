"""Tests for the simulated LLM engine.

``SimulatedLLM.execute`` is the engine's only entry point.  Its oracle is
``reference_execute``: a test-local recomputation, from
``BehaviorKernel`` and ``LLMProfile.call_latency`` alone, of what the
engine's per-kind direct calls returned before ``execute`` absorbed them
(``direct_decide``, ``direct_generate`` and ``direct_judge`` below).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.clock import ModuleName
from repro.core.errors import FaultKind
from repro.core.types import Candidate, Decision, Subgoal
from repro.llm.behavior import BehaviorKernel, DecisionRequest
from repro.llm.deployment import DeploymentOptions
from repro.llm.profiles import LLMProfile, get_profile
from repro.llm.prompt import PromptBuilder
from repro.llm.requests import PURPOSES, REQUEST_KINDS, InferenceRequest, InferenceResult
from repro.llm.simulated import OUTPUT_TOKENS, SimulatedLLM


def make_llm(profile="gpt-4", seed=0) -> SimulatedLLM:
    return SimulatedLLM(profile, rng=np.random.default_rng(seed))


def simple_prompt(words: int = 50):
    return PromptBuilder(system_text="system words " * 3).extra(
        "body", "word " * words
    ).build()


def simple_request():
    return DecisionRequest(
        candidates=[
            Candidate(subgoal=Subgoal("good"), utility=1.0),
            Candidate(subgoal=Subgoal("meh"), utility=0.4),
        ]
    )


def request(kind, **overrides) -> InferenceRequest:
    fields = dict(
        kind=kind,
        purpose="plan",
        prompt=simple_prompt(),
        module=ModuleName.PLANNING,
        phase="plan",
        agent="agent_0",
        step=1,
    )
    fields.update(overrides)
    return InferenceRequest(**fields)


# ---------------------------------------------------------------------- #
# The oracle
# ---------------------------------------------------------------------- #


def kernel_of(profile: LLMProfile) -> BehaviorKernel:
    return BehaviorKernel(
        reasoning=profile.reasoning,
        format_compliance=profile.format_compliance,
        context_focus=profile.context_focus,
    )


def direct_decide(profile, rng, decision_request, prompt, purpose):
    """A decision call: the kernel's pick, each format retry one more
    full round trip."""
    prompt_tokens = prompt.tokens
    output_tokens = OUTPUT_TOKENS[purpose]
    outcome = kernel_of(profile).decide(decision_request, prompt_tokens, rng)
    calls = 1 + outcome.retries
    return InferenceResult(
        prompt_tokens=prompt_tokens,
        output_tokens=output_tokens,
        latency=calls * profile.call_latency(prompt_tokens, output_tokens),
        rounds=calls,
        decision=Decision(
            subgoal=outcome.candidate.subgoal,
            fault=outcome.fault,
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
        ),
    )


def direct_generate(profile, prompt, purpose):
    """A free-form generation: one call's latency, no draw."""
    prompt_tokens = prompt.tokens
    output_tokens = OUTPUT_TOKENS[purpose]
    return InferenceResult(
        prompt_tokens=prompt_tokens,
        output_tokens=output_tokens,
        latency=profile.call_latency(prompt_tokens, output_tokens),
    )


def direct_judge(profile, rng, prompt, true_outcome):
    """A reflection verdict: one draw against the accuracy of a
    one-candidate decision at the prompt's length; a success is falsely
    condemned at a tenth of the miss rate."""
    generated = direct_generate(profile, prompt, "reflection")
    accuracy = kernel_of(profile).probability_correct(
        DecisionRequest(candidates=[Candidate(subgoal=Subgoal(name="judge"), utility=1.0)]),
        generated.prompt_tokens,
    )
    if true_outcome:
        verdict = rng.random() < accuracy
    else:
        false_positive_rate = (1.0 - accuracy) * 0.1
        verdict = rng.random() < false_positive_rate
    return InferenceResult(
        prompt_tokens=generated.prompt_tokens,
        output_tokens=generated.output_tokens,
        latency=generated.latency,
        verdict=verdict,
    )


def reference_execute(profile, rng, inference_request) -> InferenceResult:
    """What serving ``inference_request`` on ``profile`` must return,
    drawing from ``rng`` exactly as the engine draws from its own."""
    kind = inference_request.kind
    prompt = inference_request.prompt
    if kind == "decision":
        return direct_decide(
            profile, rng, inference_request.decision, prompt, inference_request.purpose
        )
    if kind == "generation":
        return direct_generate(profile, prompt, inference_request.purpose)
    if kind == "judgement":
        return direct_judge(profile, rng, prompt, inference_request.true_outcome)
    output_tokens = inference_request.output_tokens
    return InferenceResult(
        prompt_tokens=prompt.tokens,
        output_tokens=output_tokens,
        latency=profile.call_latency(prompt.tokens, output_tokens),
    )


def assert_matches_reference(profile, deployment, inference_request, seed):
    """``execute`` equals the oracle field for field and leaves its
    generator where the oracle leaves an identically seeded one."""
    engine_rng = np.random.default_rng(seed)
    llm = SimulatedLLM(profile, rng=engine_rng, deployment=deployment)
    oracle_rng = np.random.default_rng(seed)
    expected = reference_execute(
        deployment.effective_profile(profile), oracle_rng, inference_request
    )
    assert llm.execute(inference_request) == expected
    assert engine_rng.bit_generator.state == oracle_rng.bit_generator.state


class TestExecute:
    def test_decision_request_matches_direct_decide(self):
        for seed in range(40):
            for purpose in PURPOSES:
                assert_matches_reference(
                    get_profile("llava-7b"),
                    DeploymentOptions(),
                    request("decision", purpose=purpose, decision=simple_request()),
                    seed,
                )

    def test_generation_request_matches_direct_generate(self):
        for purpose in PURPOSES:
            assert_matches_reference(
                get_profile("gpt-4"), DeploymentOptions(), request("generation", purpose=purpose), 3
            )

    def test_judgement_request_matches_direct_judge(self):
        for seed in range(40):
            for true_outcome in (True, False):
                assert_matches_reference(
                    get_profile("llama-3-8b"),
                    DeploymentOptions(),
                    request("judgement", purpose="reflection", true_outcome=true_outcome),
                    seed,
                )

    def test_completion_costs_call_latency_without_accounting(self):
        """A completion prices its own output length and draws nothing."""
        rng = np.random.default_rng(0)
        llm = SimulatedLLM("gpt-4", rng=rng)
        before = rng.bit_generator.state
        prompt = simple_prompt()
        result = llm.execute(request("completion", prompt=prompt, output_tokens=220))
        assert result.latency == llm.profile.call_latency(prompt.tokens, 220)
        assert result.output_tokens == 220
        assert result.decision is None and result.verdict is None
        assert rng.bit_generator.state == before

    def test_decision_request_requires_candidates(self):
        with pytest.raises(ValueError):
            request("decision")
        with pytest.raises(ValueError):
            request("completion")
        with pytest.raises(ValueError):
            request("mystery")
        with pytest.raises(ValueError):
            request("generation", purpose="world_model")

    def test_output_table_covers_every_purpose(self):
        assert tuple(OUTPUT_TOKENS) == PURPOSES


#: A small subgoal vocabulary, so ties and repeats are common.
VOCABULARY = [
    Subgoal(name, target) for name in ("fetch", "explore") for target in ("mug", "box", "")
]
CANDIDATES = st.lists(
    st.builds(
        Candidate,
        subgoal=st.sampled_from(VOCABULARY),
        utility=st.sampled_from((0.0, 0.25, 0.5, 1.0)),
        feasible=st.booleans(),
        fault=st.one_of(st.none(), st.sampled_from(FaultKind)),
    ),
    min_size=1,
    max_size=12,
)
PROFILE_NAMES = ("gpt-4", "llama-3-70b", "llama-13b", "llama-3-8b", "llava-7b", "llava-8b")


@st.composite
def served_calls(draw):
    """A random profile and deployment, and one request of any kind.

    Judgements are reflections: that is the only purpose a judgement is
    issued with, and the one its output length always came from.
    """
    profile = get_profile(draw(st.sampled_from(PROFILE_NAMES))).with_(
        reasoning=draw(st.floats(min_value=0.01, max_value=1.0)),
        format_compliance=draw(st.sampled_from((1.0, 0.9, 0.5, 0.05))),
    )
    deployment = DeploymentOptions()
    if profile.deployment == "local":
        deployment = DeploymentOptions(
            quantization=draw(st.sampled_from(("", "awq"))),
            runtime=draw(st.sampled_from(("", "mlc"))),
        )
    kind = draw(st.sampled_from(REQUEST_KINDS))
    purpose = "reflection" if kind == "judgement" else draw(st.sampled_from(PURPOSES))
    candidates = draw(CANDIDATES)
    inference_request = request(
        kind,
        purpose=purpose,
        prompt=simple_prompt(draw(st.integers(min_value=0, max_value=3000))),
        decision=DecisionRequest(
            candidates=candidates,
            difficulty=draw(st.sampled_from(("easy", "medium", "hard"))),
            n_joint=draw(st.integers(min_value=1, max_value=8)),
            blacklist=draw(st.frozensets(st.sampled_from(VOCABULARY), max_size=2)),
        )
        if kind == "decision"
        else None,
        true_outcome=draw(st.booleans()),
        output_tokens=draw(st.integers(min_value=1, max_value=400))
        if kind == "completion"
        else None,
    )
    return profile, deployment, inference_request


@settings(max_examples=300, deadline=None)
@given(call=served_calls(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(
    call=(
        get_profile("llava-7b").with_(format_compliance=0.05),
        DeploymentOptions(quantization="awq"),
        request("decision", purpose="action_selection", decision=simple_request()),
    ),
    seed=2,
)
def test_execute_matches_reference(call, seed):
    """All four kinds on random profiles, prompts, candidate sets and
    ground truths: every result field and the generator's state after
    the call equal the oracle's."""
    profile, deployment, inference_request = call
    assert_matches_reference(profile, deployment, inference_request, seed)


class TestDecide:
    def test_decision_carries_latency_and_tokens(self):
        prompt = simple_prompt()
        result = make_llm().execute(request("decision", prompt=prompt, decision=simple_request()))
        assert result.decision.prompt_tokens == prompt.tokens
        assert result.decision.output_tokens == OUTPUT_TOKENS["plan"]
        assert result.latency > 0

    def test_latency_matches_profile_for_clean_call(self):
        llm = make_llm()
        prompt = simple_prompt()
        result = llm.execute(request("decision", prompt=prompt, decision=simple_request()))
        per_call = llm.profile.call_latency(prompt.tokens, result.output_tokens)
        assert result.latency == pytest.approx(per_call * result.rounds)

    def test_purpose_changes_output_tokens(self):
        result = make_llm().execute(
            request("decision", purpose="action_selection", decision=simple_request())
        )
        assert result.decision.output_tokens == OUTPUT_TOKENS["action_selection"]


class TestGenerate:
    def test_generation_result(self):
        result = make_llm().execute(request("generation", purpose="message"))
        assert result.output_tokens == OUTPUT_TOKENS["message"]
        assert result.latency > 0


def verdicts(true_outcome: bool, n: int = 200) -> int:
    llm = make_llm()
    judgement = request("judgement", purpose="reflection", true_outcome=true_outcome)
    return sum(1 for _ in range(n) if llm.execute(judgement).verdict)


class TestJudge:
    def test_strong_judge_detects_failures(self):
        assert verdicts(True) > 150

    def test_strong_judge_rarely_flags_success(self):
        assert verdicts(False) < 20

    def test_judge_charges_generation(self):
        result = make_llm().execute(request("judgement", purpose="reflection", true_outcome=True))
        assert result.output_tokens == OUTPUT_TOKENS["reflection"]


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = make_llm(seed=9)
        b = make_llm(seed=9)
        decision = request("decision", decision=simple_request())
        for _ in range(10):
            assert a.execute(decision) == b.execute(decision)
