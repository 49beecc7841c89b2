"""Failure-injection tests: forcing each fault type through the pipeline.

These tests construct degenerate model profiles (near-zero reasoning or
compliance) to force specific fault classes and verify the system-level
consequences the paper describes: wasted steps, reflection recovery,
loops without reflection, and metric attribution.
"""

from conftest import small_env

from repro.core.config import MemoryConfig, SystemConfig
from repro.core.errors import FaultKind
from repro.core.runner import run_episode
from repro.llm.profiles import LLMProfile, register_profile

#: A planner that is nearly always wrong but always parseable.
_CHAOS = LLMProfile(
    name="chaos-planner",
    deployment="local",
    overhead_s=0.01,
    prefill_tps=10000.0,
    decode_tps=1000.0,
    reasoning=0.02,
    format_compliance=1.0,
    context_window=8192,
    focus_midpoint=5000.0,
    focus_slope=1000.0,
)

#: A planner that can barely emit parseable output.
_GIBBERISH = LLMProfile(
    name="gibberish-planner",
    deployment="local",
    overhead_s=0.01,
    prefill_tps=10000.0,
    decode_tps=1000.0,
    reasoning=0.9,
    format_compliance=0.05,
    context_window=8192,
    focus_midpoint=5000.0,
    focus_slope=1000.0,
)

for _profile in (_CHAOS, _GIBBERISH):
    try:
        register_profile(_profile)
    except ValueError:
        pass  # already registered by a previous test module import


def config_with_planner(planner: str, reflection: str | None) -> SystemConfig:
    return SystemConfig(
        name=f"probe-{planner}",
        paradigm="modular",
        env_name="household",
        planning_model=planner,
        sensing_model=None,
        memory=MemoryConfig(capacity_steps=20),
        reflection_model=reflection,
    )


class TestChaosPlanner:
    def test_faults_dominate_metrics(self):
        result = run_episode(
            config_with_planner("chaos-planner", None), seed=0, difficulty="easy"
        )
        assert sum(result.faults.values()) > result.steps * 0.5

    def test_task_rarely_succeeds(self):
        successes = sum(
            run_episode(
                config_with_planner("chaos-planner", None), seed=s, difficulty="easy"
            ).success
            for s in range(5)
        )
        assert successes <= 2

    def test_reflection_rescues_some_progress(self):
        def mean_progress(reflection):
            return sum(
                run_episode(
                    config_with_planner("chaos-planner", reflection),
                    seed=s,
                    difficulty="easy",
                ).goal_progress
                for s in range(5)
            ) / 5

        assert mean_progress("gpt-4") >= mean_progress(None)

    def test_repeated_faults_appear_without_reflection(self):
        total_repeats = 0
        for seed in range(5):
            result = run_episode(
                config_with_planner("chaos-planner", None), seed=seed, difficulty="easy"
            )
            total_repeats += result.faults.get(FaultKind.REPEATED, 0)
        assert total_repeats > 0


class TestGibberishPlanner:
    def test_format_faults_recorded(self):
        total_format = 0
        for seed in range(3):
            result = run_episode(
                config_with_planner("gibberish-planner", None), seed=seed, difficulty="easy"
            )
            total_format += result.faults.get(FaultKind.FORMAT, 0)
        assert total_format > 0

    def test_retries_inflate_latency(self):
        good = run_episode(
            config_with_planner("llama-7b-ft", None), seed=1, difficulty="easy"
        )
        bad = run_episode(
            config_with_planner("gibberish-planner", None), seed=1, difficulty="easy"
        )
        # Same latency profile, but retry round-trips multiply call time.
        assert bad.prompt_tokens / max(1, bad.steps) > good.prompt_tokens / max(
            1, good.steps
        )


class TestHallucinationPath:
    def test_hallucinated_fetch_fails_and_wastes_step(self, rng):
        from repro.core.beliefs import Beliefs
        from repro.core.types import Subgoal

        env = small_env("household", difficulty="easy", seed=0)
        env.tick()
        outcome = env.execute(
            "agent_0", Subgoal(name="fetch", target="imaginary_object_0"), rng
        )
        assert not outcome.success

    def test_hallucination_candidates_marked(self):
        from repro.core.beliefs import Beliefs

        env = small_env("household", difficulty="easy", seed=0)
        env.tick()
        candidates = env.candidates("agent_0", Beliefs())
        ghosts = [c for c in candidates if c.fault is FaultKind.HALLUCINATION]
        assert ghosts
        assert all(not c.feasible for c in ghosts)
