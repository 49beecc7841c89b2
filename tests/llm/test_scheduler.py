"""Tests for the inference scheduler (the unified serving layer).

Covers the two serving modes' contracts: per-call dispatch reproduces the
pre-scheduler accounting byte-for-byte; batched dispatch changes only
latency — grouping phase-concurrent requests per serving group, pricing
them through ``DeploymentOptions.batched_call_latency``, and pinning the
modeled latency the deleted ``batched_decide`` special case used to
charge.
"""

import dataclasses
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.clock import ModuleName, SimClock
from repro.core.config import SERVE_MODES, OptimizationConfig
from repro.core.errors import FaultKind
from repro.core.metrics import MetricsCollector
from repro.core.runner import build_loop, build_task
from repro.core.types import Candidate, Subgoal
from repro.llm.behavior import DecisionRequest
from repro.llm.deployment import DEFAULT_OCCUPANCY_CAP, DeploymentOptions
from repro.llm.profiles import LLMProfile, get_profile
from repro.llm.prompt import PromptBuilder
from repro.llm.requests import PURPOSES, REQUEST_KINDS, InferenceRequest, InferenceResult
from repro.llm.scheduler import InferenceScheduler
from repro.llm.simulated import OUTPUT_TOKENS, SimulatedLLM
from repro.optim import with_batching, with_continuous_serving
from repro.workloads.registry import get_workload


def compliant_profile(name: str = "pin-model") -> LLMProfile:
    """A local profile that never format-retries (deterministic rounds)."""
    base = get_profile("llava-7b")
    return base.with_(name=name, format_compliance=1.0)


def make_parts(
    mode: str,
    seed: int = 0,
    profile: LLMProfile | str = "gpt-4",
    deployment: DeploymentOptions | None = None,
):
    clock = SimClock()
    metrics = MetricsCollector(workload="test", horizon=50)
    scheduler = InferenceScheduler(clock, metrics, mode=mode)
    llm = SimulatedLLM(profile, rng=np.random.default_rng(seed), deployment=deployment)
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


def loop_mode(config) -> str:
    """The serving mode of the loop ``config`` builds."""
    task = build_task(config, difficulty="easy", seed=1)
    return build_loop(config, task, seed=1).scheduler.mode


class TestMode:
    """The system config selects the mode; the shell (the retired
    ``REPRO_SERVE`` knob) selects nothing."""

    def test_env_default_is_percall(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE", "batched")
        assert OptimizationConfig().serve_mode == "percall"
        assert loop_mode(get_workload("coela").config) == "percall"
        clock, metrics = SimClock(), MetricsCollector(workload="t", horizon=1)
        assert InferenceScheduler(clock, metrics).mode == "percall"

    def test_env_selects_batched(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE", "continuous")
        assert loop_mode(with_batching(get_workload("coela").config)) == "batched"

    def test_env_selects_continuous(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE", "batched")
        config = with_continuous_serving(get_workload("coela").config)
        assert loop_mode(config) == "continuous"

    def test_env_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE", "streamed")  # read by nothing
        assert loop_mode(get_workload("coela").config) == "percall"
        for mode in ("streamed", "Batched", ""):
            with pytest.raises(ValueError, match="serve_mode"):
                OptimizationConfig(serve_mode=mode)

    def test_scheduler_rejects_unknown_mode(self):
        clock, metrics = SimClock(), MetricsCollector(workload="t", horizon=1)
        with pytest.raises(ValueError):
            InferenceScheduler(clock, metrics, mode="streamed")

    def test_config_serve_mode_values_mirror_scheduler_modes(self):
        """The config accepts exactly the scheduler's modes."""
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
        assert scheduler.pending == 0

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

    def test_cap_splits_the_queue_and_charges_wait(self):
        """Requests beyond the cap wait for the engine — and pay for it."""
        profile = compliant_profile()
        clock, metrics, scheduler, llm = make_parts("continuous", profile=profile)
        cap = DEFAULT_OCCUPANCY_CAP
        results = [
            scheduler.submit(llm, plan_request(words=50, agent=f"a{i}"))
            for i in range(cap + 2)
        ]
        scheduler.flush(final=True)
        first_end = DeploymentOptions().batched_call_latency(
            profile,
            [result.prompt_tokens for result in results[:cap]],
            [result.output_tokens for result in results[:cap]],
        )
        second_service = DeploymentOptions().batched_call_latency(
            profile,
            [result.prompt_tokens for result in results[cap:]],
            [result.output_tokens for result in results[cap:]],
        )
        assert metrics.serve_batches == 2
        assert metrics.serve_batched_requests == cap + 2
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
        with clock.concurrent(0.0):  # submit as-of an earlier instant
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


@dataclass
class SizedBackend:
    """A backend whose requests cost exactly the token sizes a test picks."""

    profile: LLMProfile
    deployment: DeploymentOptions
    sizes: Iterator[tuple[int, int]]

    def execute(self, request: InferenceRequest) -> InferenceResult:
        prompt_tokens, output_tokens = next(self.sizes)
        return InferenceResult(
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            latency=self.profile.call_latency(prompt_tokens, output_tokens),
        )


#: One request: (arrival gap after the previous one, prompt, output tokens).
ARRIVALS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=4.0),
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=1, max_value=300),
    ),
    min_size=1,
    max_size=14,
)


@settings(max_examples=150, deadline=None)
@given(arrivals=ARRIVALS)
@example(arrivals=[(0.0, 400, 60)] * 12)  # more simultaneous arrivals than the cap
def test_continuous_engine_properties(arrivals):
    """Random request streams through one engine, observed per batch;
    no batch admits more than :data:`DEFAULT_OCCUPANCY_CAP` requests."""
    profile = compliant_profile()
    deployment = DeploymentOptions()
    clock = SimClock()
    metrics = MetricsCollector(workload="t", horizon=1)
    scheduler = InferenceScheduler(clock, metrics, mode="continuous")
    backend = SizedBackend(
        profile, deployment, iter([(prompt, output) for _, prompt, output in arrivals])
    )
    served: list[tuple[float, float]] = []
    batches: list[list[tuple[float, float]]] = []

    def record_served_request(wait_seconds, total_seconds, joined=False):
        served.append((wait_seconds, total_seconds))

    def record_batch(occupancy):
        assert len(served) == occupancy  # the batch's requests, just settled
        batches.append(served[:])
        served.clear()

    # Spy on this collector instance; the scheduler reports through it.
    metrics.record_served_request = record_served_request
    metrics.record_batch = record_batch
    for gap, _prompt, _output in arrivals:
        clock.wait(gap)
        scheduler.submit(backend, plan_request(agent="a0"))
    scheduler.flush(final=True)

    cap = DEFAULT_OCCUPANCY_CAP
    records = [record for batch in batches for record in batch]
    assert len(records) == len(arrivals)
    # Non-decreasing arrivals keep the engine queue in submission order.
    for (wait, total), (_gap, prompt, output) in zip(records, arrivals):
        assert wait >= 0.0
        service = prompt / profile.prefill_tps + output / profile.decode_tps
        assert total >= service - 1e-9
    for batch in batches:
        assert 1 <= len(batch) <= cap
    start = 0
    for batch in batches:
        if len(batch) == 1:
            (wait, total), (_gap, prompt, output) = batch[0], arrivals[start]
            assert total == pytest.approx(wait + profile.call_latency(prompt, output))
        start += len(batch)


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


#: Serving groups a stream mixes: (module, phase) pairs the loops use.
STREAM_PHASES = (
    (ModuleName.PLANNING, "plan"),
    (ModuleName.PLANNING, "replan"),
    (ModuleName.COMMUNICATION, "dialogue"),
    (ModuleName.REFLECTION, "reflect"),
    (ModuleName.EXECUTION, "act"),
)
STREAM_CANDIDATES = [
    Candidate(subgoal=Subgoal("fetch", target=target), utility=utility, feasible=feasible)
    for target, utility, feasible in (
        ("mug", 1.0, True), ("box", 0.6, True), ("key", 1.0, True), ("lamp", 0.2, False),
    )
] + [Candidate(subgoal=Subgoal("fetch", target="ghost"), utility=0.0, feasible=False,
               fault=FaultKind.HALLUCINATION)]

#: One request of a stream, then whether a phase flush follows it.
STREAM_REQUESTS = st.tuples(
    st.fixed_dictionaries(
        {
            "kind": st.sampled_from(REQUEST_KINDS),
            "purpose": st.sampled_from(PURPOSES),
            "phase": st.sampled_from(STREAM_PHASES),
            "agent": st.integers(min_value=0, max_value=3),
            "step": st.integers(min_value=0, max_value=5),
            "words": st.integers(min_value=0, max_value=400),
            "sequential": st.booleans(),
            "true_outcome": st.booleans(),
            "output_tokens": st.integers(min_value=1, max_value=300),
            "candidates": st.lists(
                st.sampled_from(STREAM_CANDIDATES), min_size=1, max_size=5
            ),
            "as_tuple": st.booleans(),
        }
    ),
    st.booleans(),
)


def stream_request(spec: dict) -> InferenceRequest:
    module, phase = spec["phase"]
    kind = spec["kind"]
    candidates = spec["candidates"]
    return InferenceRequest(
        kind=kind,
        purpose=spec["purpose"],
        prompt=prompt_of(spec["words"]),
        module=module,
        phase=phase,
        agent=f"a{spec['agent']}",
        step=spec["step"],
        decision=DecisionRequest(
            candidates=tuple(candidates) if spec["as_tuple"] else list(candidates),
            difficulty="hard",
        )
        if kind == "decision"
        else None,
        true_outcome=spec["true_outcome"],
        output_tokens=spec["output_tokens"] if kind == "completion" else None,
        sequential=spec["sequential"],
    )


def serve_stream(mode: str, stream, seed: int):
    """Serve ``stream`` under ``mode``; returns (per-request outcomes, metrics)."""
    clock = SimClock()
    metrics = MetricsCollector(workload="stream", horizon=10)
    scheduler = InferenceScheduler(clock, metrics, mode=mode)
    # Per-agent engines: a flaky local model retries, so rounds vary.
    llms = [
        SimulatedLLM(profile, rng=np.random.default_rng(seed + index))
        for index, profile in enumerate(("gpt-4", "llava-7b", "gpt-4", "llama-3-8b"))
    ]
    outcomes = []
    for spec, flush_after in stream:
        request = stream_request(spec)
        result = scheduler.submit(llms[spec["agent"]], request)
        decision = result.decision
        outcomes.append(
            (
                result.prompt_tokens,
                result.output_tokens,
                result.rounds,
                None if decision is None else (decision.subgoal, decision.fault),
                result.verdict,
            )
        )
        if flush_after:
            scheduler.flush()
    scheduler.flush(final=True)
    assert scheduler.pending == 0
    return outcomes, metrics


@settings(max_examples=120, deadline=None)
@given(
    stream=st.lists(STREAM_REQUESTS, min_size=1, max_size=40),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_outcomes_invariant_across_serving_modes(stream, seed):
    """Random request streams: a serving mode moves only modeled time.

    Per-request tokens, rounds, decisions, verdicts and every metric
    outside the clock and the ``serve_*`` latency fields match across
    the three modes; the deferred modes dispatch every non-sequential
    request in exactly one batch.
    """
    served = {mode: serve_stream(mode, stream, seed) for mode in SERVE_MODES}
    reference_outcomes, reference = served["percall"]
    assert reference.llm_calls == len(stream)
    assert reference.serve_batched_requests == 0
    deferred = sum(1 for spec, _flush in stream if not spec["sequential"])
    for mode, (outcomes, metrics) in served.items():
        assert outcomes == reference_outcomes, mode
        assert metrics.token_samples == reference.token_samples, mode
        assert metrics.faults == reference.faults, mode
        # Everything else the collector holds, bar the serve_* latency fields.
        assert outcome_fields(metrics) == outcome_fields(reference), mode
        if mode != "percall":
            assert metrics.serve_batched_requests == deferred, mode


def outcome_fields(metrics: MetricsCollector) -> dict:
    return {
        field.name: getattr(metrics, field.name)
        for field in dataclasses.fields(metrics)
        if not field.name.startswith("serve_")
    }
