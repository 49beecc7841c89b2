"""Tests for the inference scheduler (the unified serving layer).

Covers the two serving modes' contracts: per-call dispatch reproduces the
pre-scheduler accounting byte-for-byte; batched dispatch changes only
latency — grouping phase-concurrent requests per serving group, pricing
them through ``DeploymentOptions.batched_call_latency``, and pinning the
modeled latency the deleted ``batched_decide`` special case used to
charge.
"""

import numpy as np
import pytest

from repro.core.clock import ModuleName, SimClock
from repro.core.metrics import MetricsCollector
from repro.core.types import Candidate, Subgoal
from repro.llm.behavior import DecisionRequest
from repro.llm.deployment import DeploymentOptions
from repro.llm.profiles import LLMProfile, get_profile
from repro.llm.prompt import PromptBuilder
from repro.llm.requests import InferenceRequest
from repro.core.settings import RunSettings
from repro.llm.scheduler import SERVE_MODES, InferenceScheduler
from repro.llm.simulated import OUTPUT_TOKENS, SimulatedLLM


def compliant_profile(name: str = "pin-model") -> LLMProfile:
    """A local profile that never format-retries (deterministic rounds)."""
    base = get_profile("llava-7b")
    return base.with_(name=name, format_compliance=1.0)


def make_parts(mode: str, seed: int = 0, profile: LLMProfile | str = "gpt-4"):
    clock = SimClock()
    metrics = MetricsCollector(workload="test", horizon=50)
    scheduler = InferenceScheduler(clock, metrics, mode=mode)
    llm = SimulatedLLM(profile, rng=np.random.default_rng(seed))
    return clock, metrics, scheduler, llm


def prompt_of(words: int):
    return PromptBuilder(system_text="plan well").extra("body", "word " * words).build()


def plan_request(words: int = 40, agent: str = "agent_0", phase: str = "plan"):
    return InferenceRequest(
        kind="decision",
        purpose="plan",
        prompt=prompt_of(words),
        module=ModuleName.PLANNING,
        phase=phase,
        agent=agent,
        step=3,
        decision=DecisionRequest(
            candidates=[Candidate(subgoal=Subgoal("go"), utility=1.0)]
        ),
    )


class TestMode:
    def test_env_default_is_percall(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE", raising=False)
        assert RunSettings.from_env().serve == "percall"
        clock, metrics = SimClock(), MetricsCollector(workload="t", horizon=1)
        assert InferenceScheduler(clock, metrics).mode == "percall"

    def test_env_selects_batched(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE", " Batched ")
        assert RunSettings.from_env().serve == "batched"

    def test_env_selects_continuous(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE", "continuous")
        assert RunSettings.from_env().serve == "continuous"

    def test_env_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE", "streamed")
        with pytest.raises(ValueError):
            RunSettings.from_env()

    def test_scheduler_rejects_unknown_mode(self):
        clock, metrics = SimClock(), MetricsCollector(workload="t", horizon=1)
        with pytest.raises(ValueError):
            InferenceScheduler(clock, metrics, mode="streamed")

    def test_config_serve_mode_values_mirror_scheduler_modes(self):
        """The config pin accepts exactly the scheduler's modes."""
        from repro.core.config import OptimizationConfig

        for mode in SERVE_MODES:
            OptimizationConfig(serve_mode=mode)
        with pytest.raises(ValueError):
            OptimizationConfig(serve_mode="streamed")


class TestPercall:
    def test_charges_and_records_like_the_seed(self):
        """Per-call submit == advance + record_llm_call + record_fault."""
        clock, metrics, scheduler, llm = make_parts("percall", seed=5)
        result = scheduler.submit(llm, plan_request())
        assert clock.now == result.latency
        assert clock.elapsed_by_phase() == {(ModuleName.PLANNING, "plan"): result.latency}
        assert metrics.llm_calls == 1
        sample = metrics.token_samples[0]
        assert (sample.step, sample.agent, sample.purpose) == (3, "agent_0", "plan")
        assert sample.prompt_tokens == result.prompt_tokens
        assert scheduler.pending == 0 and scheduler.dispatched == 1

    def test_flush_is_a_noop(self):
        clock, _metrics, scheduler, llm = make_parts("percall")
        scheduler.submit(llm, plan_request())
        before = clock.now
        scheduler.flush()
        assert clock.now == before


class TestBatched:
    def test_content_resolves_at_submit_latency_at_flush(self):
        clock, metrics, scheduler, llm = make_parts("batched", seed=5)
        result = scheduler.submit(llm, plan_request())
        assert result.decision is not None  # content available immediately
        assert metrics.llm_calls == 1  # token sample recorded immediately
        assert clock.now == 0.0 and scheduler.pending == 1
        scheduler.flush()
        assert scheduler.pending == 0 and clock.now > 0.0

    def test_batch_of_one_equals_percall(self):
        """A phase with no concurrency serves exactly like per-call mode."""
        per_clock, _m, per_sched, per_llm = make_parts("percall", seed=7)
        per_sched.submit(per_llm, plan_request())
        bat_clock, _m, bat_sched, bat_llm = make_parts("batched", seed=7)
        bat_sched.submit(bat_llm, plan_request())
        bat_sched.flush()
        assert bat_clock.now == per_clock.now

    def test_outcomes_identical_across_modes(self):
        """Same rng stream, same decisions — batching moves only latency."""
        _c, per_metrics, per_sched, per_llm = make_parts("percall", seed=11)
        _c, bat_metrics, bat_sched, bat_llm = make_parts("batched", seed=11)
        per_results = [
            per_sched.submit(per_llm, plan_request(words=20 + 10 * i, agent=f"a{i}"))
            for i in range(4)
        ]
        bat_results = [
            bat_sched.submit(bat_llm, plan_request(words=20 + 10 * i, agent=f"a{i}"))
            for i in range(4)
        ]
        bat_sched.flush()
        for per, bat in zip(per_results, bat_results):
            assert bat.decision == per.decision
        assert bat_metrics.token_samples == per_metrics.token_samples
        assert bat_metrics.faults == per_metrics.faults

    def test_pin_deleted_batched_decide_latency(self):
        """The scheduler charges exactly what ``batched_decide`` charged.

        The deleted decentralized special case priced a planning batch as
        one ``DeploymentOptions.batched_call_latency`` over the per-agent
        prompt token lists with the plan output length, charged once to
        the clock.  A no-retry profile makes the comparison exact.
        """
        profile = compliant_profile()
        clock, metrics, scheduler, llm = make_parts("batched", profile=profile)
        words = (30, 45, 60, 75)
        requests = [
            plan_request(words=w, agent=f"a{i}") for i, w in enumerate(words)
        ]
        results = [scheduler.submit(llm, request) for request in requests]
        assert all(result.rounds == 1 for result in results)
        scheduler.flush()
        old_path_latency = DeploymentOptions().batched_call_latency(
            llm.profile,
            [result.prompt_tokens for result in results],
            [OUTPUT_TOKENS["plan"]] * len(results),
        )
        assert clock.now == old_path_latency
        assert clock.elapsed_by_phase() == {(ModuleName.PLANNING, "plan"): old_path_latency}
        assert metrics.serve_batches == 1
        assert metrics.serve_batched_requests == len(words)

    def test_batch_cheaper_than_percall_serial(self):
        per_clock, _m, per_sched, per_llm = make_parts("percall", profile=compliant_profile())
        bat_clock, _m, bat_sched, bat_llm = make_parts("batched", profile=compliant_profile())
        for i in range(4):
            per_sched.submit(per_llm, plan_request(words=50, agent=f"a{i}"))
            bat_sched.submit(bat_llm, plan_request(words=50, agent=f"a{i}"))
        bat_sched.flush()
        assert bat_clock.now < per_clock.now

    def test_groups_split_by_phase_and_purpose(self):
        """Different phases/purposes never share a batch."""
        clock, metrics, scheduler, llm = make_parts("batched", profile=compliant_profile())
        scheduler.submit(llm, plan_request(agent="a0", phase="plan"))
        scheduler.submit(llm, plan_request(agent="a1", phase="replan"))
        scheduler.flush()
        assert metrics.serve_batches == 2
        assert list(clock.elapsed_by_phase()) == [
            (ModuleName.PLANNING, "plan"),
            (ModuleName.PLANNING, "replan"),
        ]

    def test_deployment_batch_size_caps_occupancy(self):
        profile = compliant_profile()
        clock, metrics, scheduler, _ = make_parts("batched", profile=profile)
        capped = SimulatedLLM(
            profile,
            rng=np.random.default_rng(0),
            deployment=DeploymentOptions(batch_size=2),
        )
        for i in range(5):
            scheduler.submit(capped, plan_request(agent=f"a{i}"))
        scheduler.flush()
        assert metrics.serve_batches == 3  # 2 + 2 + 1
        assert metrics.serve_batched_requests == 5

    def test_sequential_requests_never_pend(self):
        """A serial chain (LLM primitives) charges per-call in batched mode."""
        clock, metrics, scheduler, llm = make_parts("batched", profile=compliant_profile())
        import dataclasses

        request = dataclasses.replace(plan_request(), sequential=True)
        result = scheduler.submit(llm, request)
        assert scheduler.pending == 0
        assert clock.now == result.latency
        scheduler.flush()
        assert metrics.serve_batches == 0  # nothing was batch-dispatched

    def test_same_name_different_params_never_share_a_batch(self):
        """Groups key on the profile's value, not its name."""
        profile_a = compliant_profile("twin")
        profile_b = compliant_profile("twin").with_(decode_tps=profile_a.decode_tps * 2)
        clock, metrics, scheduler, _ = make_parts("batched")
        llm_a = SimulatedLLM(profile_a, rng=np.random.default_rng(0))
        llm_b = SimulatedLLM(profile_b, rng=np.random.default_rng(0))
        scheduler.submit(llm_a, plan_request(agent="a0"))
        scheduler.submit(llm_b, plan_request(agent="a1"))
        scheduler.flush()
        assert metrics.serve_batches == 2  # one singleton batch per profile
        expected = sum(
            llm.profile.call_latency(prompt_of(40).tokens, OUTPUT_TOKENS["plan"])
            for llm in (llm_a, llm_b)
        )
        assert clock.now == pytest.approx(expected)

class TestContinuous:
    def test_phase_flush_defers_until_final(self):
        clock, _metrics, scheduler, llm = make_parts(
            "continuous", profile=compliant_profile()
        )
        scheduler.submit(llm, plan_request())
        scheduler.flush()  # phase boundary: the engine keeps queueing
        assert scheduler.pending == 1 and clock.now == 0.0
        scheduler.flush(final=True)
        assert scheduler.pending == 0 and clock.now > 0.0

    def test_single_request_settles_like_percall(self):
        per_clock, _m, per_sched, per_llm = make_parts("percall", seed=7)
        per_sched.submit(per_llm, plan_request())
        con_clock, metrics, con_sched, con_llm = make_parts("continuous", seed=7)
        con_sched.submit(con_llm, plan_request())
        con_sched.flush(final=True)
        assert con_clock.now == pytest.approx(per_clock.now)
        assert metrics.serve_batches == 1
        assert metrics.serve_queue_seconds == 0.0
        assert metrics.serve_request_seconds == pytest.approx(per_clock.now)

    def test_outcomes_identical_across_modes(self):
        _c, per_metrics, per_sched, per_llm = make_parts("percall", seed=11)
        _c, con_metrics, con_sched, con_llm = make_parts("continuous", seed=11)
        per_results = [
            per_sched.submit(per_llm, plan_request(words=20 + 10 * i, agent=f"a{i}"))
            for i in range(4)
        ]
        con_results = [
            con_sched.submit(con_llm, plan_request(words=20 + 10 * i, agent=f"a{i}"))
            for i in range(4)
        ]
        con_sched.flush(final=True)
        for per, con in zip(per_results, con_results):
            assert con.decision == per.decision
        assert con_metrics.token_samples == per_metrics.token_samples
        assert con_metrics.faults == per_metrics.faults

    def test_cap_splits_the_queue_and_charges_wait(self, monkeypatch):
        """Requests beyond the cap wait for the engine — and pay for it."""
        monkeypatch.setenv("REPRO_SERVE_CAP", "2")
        profile = compliant_profile()
        clock, metrics, scheduler, llm = make_parts("continuous", profile=profile)
        results = [
            scheduler.submit(llm, plan_request(words=50, agent=f"a{i}"))
            for i in range(4)
        ]
        scheduler.flush(final=True)
        first_end = DeploymentOptions().batched_call_latency(
            profile,
            [result.prompt_tokens for result in results[:2]],
            [result.output_tokens for result in results[:2]],
        )
        second_service = DeploymentOptions().batched_call_latency(
            profile,
            [result.prompt_tokens for result in results[2:]],
            [result.output_tokens for result in results[2:]],
        )
        assert metrics.serve_batches == 2
        assert metrics.serve_batched_requests == 4
        # Both excluded requests arrived at 0 and waited out batch one.
        assert metrics.serve_queue_seconds == pytest.approx(2 * first_end)
        assert metrics.serve_inflight_joins == 0
        assert clock.now == pytest.approx(first_end + second_service)

    def test_late_arrival_joins_in_flight(self):
        """A request arriving mid-batch takes a free slot immediately."""
        profile = compliant_profile()
        clock, metrics, scheduler, llm = make_parts("continuous", profile=profile)
        first = scheduler.submit(llm, plan_request(words=50, agent="a0"))
        clock.wait(0.5)  # engine is mid-batch when the next one arrives
        second = scheduler.submit(llm, plan_request(words=50, agent="a1"))
        scheduler.flush(final=True)
        assert metrics.serve_batches == 1
        assert metrics.serve_inflight_joins == 1
        assert metrics.serve_queue_seconds == 0.0  # joins never queue
        shared = DeploymentOptions().batched_call_latency(
            profile,
            [first.prompt_tokens, second.prompt_tokens],
            [first.output_tokens, second.output_tokens],
        )
        floor = 0.5 + (
            second.prompt_tokens / profile.prefill_tps
            + second.output_tokens / profile.decode_tps
        )
        assert clock.now == pytest.approx(max(shared, floor))

    def test_engine_stays_busy_across_flushes(self):
        """The busy-until horizon persists: a backdated arrival queues
        behind the previous step's still-running batch."""
        profile = compliant_profile()
        clock, metrics, scheduler, llm = make_parts("continuous", profile=profile)
        scheduler.submit(llm, plan_request(words=50, agent="a0"))
        scheduler.flush(final=True)
        engine_free = clock.now
        assert list(scheduler._engine_free.values()) == [pytest.approx(engine_free)]
        with clock.overlapped(0.0):  # submit as-of an earlier instant
            scheduler.submit(llm, plan_request(words=50, agent="a1"))
        scheduler.flush(final=True)
        # Arrived at 0, admitted only when the engine freed up.
        assert metrics.serve_queue_seconds == pytest.approx(engine_free)

    def test_straggler_delays_its_own_completion_only(self):
        flaky = compliant_profile().with_(name="flaky", format_compliance=0.05)
        clock, metrics, scheduler, llm = make_parts("continuous", seed=2, profile=flaky)
        results = [
            scheduler.submit(llm, plan_request(words=50, agent=f"a{i}"))
            for i in range(4)
        ]
        assert any(result.rounds > 1 for result in results)
        scheduler.flush(final=True)
        end = DeploymentOptions().batched_call_latency(
            flaky,
            [result.prompt_tokens for result in results],
            [result.output_tokens for result in results],
        )
        extras = [
            (result.rounds - 1)
            * flaky.call_latency(result.prompt_tokens, result.output_tokens)
            for result in results
        ]
        # The engine freed at the shared end; only the straggling
        # requests' completions (and the clock front) moved past it.
        assert list(scheduler._engine_free.values()) == [pytest.approx(end)]
        assert clock.now == pytest.approx(end + max(extras))
        assert metrics.serve_request_seconds == pytest.approx(
            sum(end + extra for extra in extras)
        )

    def test_sequential_requests_charge_percall(self):
        import dataclasses

        clock, metrics, scheduler, llm = make_parts(
            "continuous", profile=compliant_profile()
        )
        request = dataclasses.replace(plan_request(), sequential=True)
        result = scheduler.submit(llm, request)
        assert scheduler.pending == 0
        assert clock.now == result.latency
        scheduler.flush(final=True)
        assert metrics.serve_batches == 0

    def test_engines_key_on_profile_and_deployment_only(self):
        """Unlike batched groups, phases and purposes share an engine."""
        profile = compliant_profile()
        _clock, metrics, scheduler, llm = make_parts("continuous", profile=profile)
        scheduler.submit(llm, plan_request(agent="a0", phase="plan"))
        scheduler.submit(llm, plan_request(agent="a1", phase="replan"))
        scheduler.flush(final=True)
        assert metrics.serve_batches == 1
        assert metrics.serve_batched_requests == 2


class TestBatchedStragglers:
    def test_retries_charge_straggler_rounds(self):
        """A retried request pays its extra rounds on top of the batch."""
        flaky = compliant_profile().with_(name="flaky", format_compliance=0.05)
        clock, _metrics, scheduler, llm = make_parts("batched", seed=2, profile=flaky)
        results = [
            scheduler.submit(llm, plan_request(words=50, agent=f"a{i}"))
            for i in range(4)
        ]
        assert any(result.rounds > 1 for result in results)  # seed-chosen to retry
        scheduler.flush()
        batch_latency = DeploymentOptions().batched_call_latency(
            llm.profile,
            [result.prompt_tokens for result in results],
            [result.output_tokens for result in results],
        )
        stragglers = sum(
            (result.rounds - 1)
            * llm.profile.call_latency(result.prompt_tokens, result.output_tokens)
            for result in results
        )
        assert clock.now == pytest.approx(batch_latency + stragglers)
