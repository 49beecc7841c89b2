"""Episode-level tests of the deferred serving modes (Rec. 1).

The scheduler unit tests (``tests/llm/test_scheduler.py``) pin the batch
pricing and the continuous engine's queue mechanics; these tests drive
whole episodes through the paradigm loops and assert the serving layer's
system-level contract: serving modes are invisible to task outcomes,
visible in modeled latency, and expose the occupancy/queueing structure
each paradigm's phases actually have.
"""

from __future__ import annotations

import pytest

from repro.core.metrics import aggregate
from repro.core.runner import build_loop, build_task, run_episode
from repro.workloads.registry import get_workload

OUTCOME_FIELDS = (
    "success",
    "steps",
    "llm_calls",
    "prompt_tokens",
    "output_tokens",
    "messages_sent",
    "messages_useful",
    "faults",
    "reflections_triggered",
    "replans",
)


def outcomes(result) -> tuple:
    return tuple(getattr(result, field) for field in OUTCOME_FIELDS)


def run_loop(config, seed: int):
    """One medium episode's result and the loop whose metrics hold its records."""
    loop = build_loop(config, build_task(config, seed=seed), seed)
    return loop.run(), loop


class TestBatchedEpisodes:
    def test_decentralized_team_batches_per_agent_calls(self):
        base = get_workload("coela").config.with_agents(4)
        percall, percall_loop = run_loop(base, seed=2)
        batched, batched_loop = run_loop(
            base.with_optimizations(serve_mode="batched"), seed=2
        )
        assert outcomes(batched) == outcomes(percall)
        assert batched.sim_seconds < percall.sim_seconds
        # Plans, composes, selections, and reflections all expose the
        # full team per phase; singleton groups (replans) dilute the
        # mean below 4 but concurrency must dominate.
        assert aggregate([batched]).mean_batch_occupancy > 2.0
        assert batched.serve_batches > 0
        # Per-step records (subgoals chosen, execution outcomes) agree.
        assert [
            (record.step, record.agent, record.subgoal)
            for record in batched_loop.metrics.records
        ] == [
            (record.step, record.agent, record.subgoal)
            for record in percall_loop.metrics.records
        ]

    def test_centralized_has_no_concurrency_to_batch(self):
        """One joint call per step: batching is a latency no-op (to
        rounding — deferred charges re-order the float accumulation)."""
        base = get_workload("mindagent").config.with_agents(6)
        percall = run_episode(base, seed=2)
        batched = run_episode(base.with_optimizations(serve_mode="batched"), seed=2)
        assert outcomes(batched) == outcomes(percall)
        assert batched.sim_seconds == pytest.approx(percall.sim_seconds, rel=1e-9)

    def test_hierarchy_batches_across_cluster_leads(self):
        base = get_workload("mindagent").config.with_agents(6).with_optimizations(
            hierarchy_cluster_size=3
        )
        percall = run_episode(base, seed=0)
        batched = run_episode(base.with_optimizations(serve_mode="batched"), seed=0)
        assert outcomes(batched) == outcomes(percall)
        # Two cluster leads plan concurrently each step.
        assert aggregate([batched]).mean_batch_occupancy > 1.0
        assert batched.sim_seconds < percall.sim_seconds

    def test_single_agent_occupancy_is_one(self):
        base = get_workload("jarvis-1").config
        batched = run_episode(base.with_optimizations(serve_mode="batched"), seed=1)
        percall = run_episode(base, seed=1)
        assert outcomes(batched) == outcomes(percall)
        assert aggregate([batched]).mean_batch_occupancy == 1.0
        assert batched.sim_seconds == pytest.approx(percall.sim_seconds, rel=1e-9)

    def test_loop_finishes_with_nothing_pending(self):
        config = get_workload("coela").config.with_agents(4).with_optimizations(
            serve_mode="batched"
        )
        task = build_task(config, seed=3)
        loop = build_loop(config, task, seed=3)
        result = loop.run()
        assert loop.scheduler.mode == "batched"
        assert loop.scheduler.pending == 0
        assert result.serve_batched_requests == result.llm_calls > 0

    def test_percall_reports_no_batches(self):
        result = run_episode(get_workload("coela").config.with_agents(4), seed=2)
        assert result.serve_batches == 0
        assert aggregate([result]).mean_batch_occupancy == 0.0
        assert aggregate([result]).mean_queue_delay == 0.0
        assert aggregate([result]).mean_request_latency == 0.0
        assert result.serve_inflight_joins == 0

    def test_batched_reports_no_queue_metrics(self):
        """Plain batching has no arrival queue: the queueing columns stay
        zero, distinguishing it from the continuous engine."""
        config = get_workload("coela").config.with_agents(4).with_optimizations(
            serve_mode="batched"
        )
        result = run_episode(config, seed=2)
        assert result.serve_batches > 0
        assert aggregate([result]).mean_queue_delay == 0.0
        assert result.serve_inflight_joins == 0


class TestContinuousEpisodes:
    def test_outcomes_invariant_latency_and_queueing_visible(self):
        base = get_workload("coela").config.with_agents(8)
        percall = run_episode(base, seed=2)
        batched = run_episode(base.with_optimizations(serve_mode="batched"), seed=2)
        continuous = run_episode(base.with_optimizations(serve_mode="continuous"), seed=2)
        assert outcomes(continuous) == outcomes(percall)
        served = aggregate([continuous])
        # The whole step's requests share one engine, so occupancy can
        # only match or beat the phase-segregated batched groups.
        assert served.mean_batch_occupancy >= aggregate([batched]).mean_batch_occupancy
        # Eight agents expose more concurrent requests per step than
        # the default admission cap: the cap makes some of them wait, and the
        # wait is charged (per-request latency >= queue delay > 0).
        assert served.mean_queue_delay > 0.0
        assert served.mean_request_latency > served.mean_queue_delay
        assert continuous.serve_inflight_joins > 0
        assert continuous.sim_seconds < percall.sim_seconds

    def test_single_agent_continuous_matches_percall_latency(self):
        base = get_workload("jarvis-1").config
        percall = run_episode(base, seed=1)
        continuous = run_episode(base.with_optimizations(serve_mode="continuous"), seed=1)
        assert outcomes(continuous) == outcomes(percall)
        assert aggregate([continuous]).mean_batch_occupancy >= 1.0

    def test_loop_finishes_with_nothing_pending(self):
        config = get_workload("coela").config.with_agents(4).with_optimizations(
            serve_mode="continuous"
        )
        task = build_task(config, seed=3)
        loop = build_loop(config, task, seed=3)
        result = loop.run()
        assert loop.scheduler.mode == "continuous"
        assert loop.scheduler.pending == 0
        # Sequential requests (primitive chains) charge per-call even
        # here, so the engine serves at most the episode's call count.
        assert 0 < result.serve_batched_requests <= result.llm_calls


def run_with_overlap(config, overlap: bool, seed: int = 2):
    config = config.with_optimizations(overlap=overlap)
    task = build_task(config, seed=seed)
    return build_loop(config, task, seed).run()


class TestPerceptionOverlap:
    def test_overlap_shaves_latency_without_touching_outcomes(self):
        base = get_workload("coela").config.with_agents(4).with_optimizations(
            serve_mode="continuous"
        )
        plain = run_with_overlap(base, overlap=False)
        overlapped = run_with_overlap(base, overlap=True)
        assert outcomes(overlapped) == outcomes(plain)
        assert overlapped.sim_seconds < plain.sim_seconds
        # Full module attribution is preserved; only wall-clock shrinks.
        assert sum(overlapped.module_seconds.values()) == pytest.approx(
            sum(plain.module_seconds.values())
        )

    def test_overlap_is_inert_under_percall(self):
        """Per-call serving charges no flush to overlap with, so the
        loop would ignore the flag: the config refuses it."""
        base = get_workload("coela").config.with_agents(4)
        assert base.optimizations.serve_mode == "percall"
        with pytest.raises(ValueError, match="overlap"):
            run_with_overlap(base, overlap=True)
        with pytest.raises(ValueError, match="overlap"):
            base.with_optimizations(serve_mode="continuous", overlap=True).with_optimizations(
                serve_mode="percall"
            )
