"""Suite-wide integration invariants.

Runs one real episode per benchmarked workload and checks the metric
invariants every figure relies on: latency attribution consistency,
module presence vs latency, token accounting, and paradigm-specific
call structure.
"""

import pytest

from repro.core.clock import ModuleName
from repro.core.runner import build_loop, build_task
from repro.workloads import WORKLOAD_SUITE, get_workload


@pytest.fixture(scope="module")
def suite_loops():
    """Workload name -> its loop after one easy episode, and the result."""
    runs = {}
    for workload in WORKLOAD_SUITE:
        config = workload.config
        loop = build_loop(config, build_task(config, difficulty="easy", seed=1), seed=1)
        runs[workload.name] = (loop, loop.run())
    return runs


@pytest.fixture(scope="module")
def suite_results(suite_loops):
    return {name: result for name, (_loop, result) in suite_loops.items()}


@pytest.fixture(scope="module")
def suite_metrics(suite_loops):
    """Workload name -> the collector that kept its records and samples."""
    return {name: loop.metrics for name, (loop, _result) in suite_loops.items()}


class TestLatencyInvariants:
    def test_attributed_time_covers_clock(self, suite_results):
        """Attributed spans ≥ elapsed time (parallel spans overlap)."""
        for name, result in suite_results.items():
            attributed = sum(result.module_seconds.values())
            assert attributed >= result.sim_seconds * 0.98, name

    def test_absent_modules_have_no_latency(self, suite_results):
        for workload in WORKLOAD_SUITE:
            result = suite_results[workload.name]
            flags = workload.config.module_flags()
            if not flags["communication"]:
                assert result.module_seconds.get(ModuleName.COMMUNICATION, 0.0) == 0.0
            if not flags["reflection"]:
                assert result.module_seconds.get(ModuleName.REFLECTION, 0.0) == 0.0
            if not flags["memory"]:
                assert result.module_seconds.get(ModuleName.MEMORY, 0.0) == 0.0

    def test_planning_always_present(self, suite_results):
        for name, result in suite_results.items():
            assert result.module_seconds.get(ModuleName.PLANNING, 0.0) > 0.0, name

    def test_llm_fraction_bounded(self, suite_results):
        for name, result in suite_results.items():
            assert 0.0 <= result.llm_fraction <= 1.0, name

    def test_steps_within_horizon(self, suite_results):
        for name, result in suite_results.items():
            assert 1 <= result.steps <= result.horizon, name


class TestTokenAccounting:
    def test_tokens_positive(self, suite_results):
        for name, result in suite_results.items():
            assert result.prompt_tokens > 0, name
            assert result.output_tokens > 0, name

    def test_token_samples_match_call_counts(self, suite_results, suite_metrics):
        for name, result in suite_results.items():
            assert len(suite_metrics[name].token_samples) <= result.llm_calls, name

    def test_steps_recorded(self, suite_results, suite_metrics):
        for name, result in suite_results.items():
            records = suite_metrics[name].records
            assert records, name
            assert max(record.step for record in records) <= result.steps


class TestParadigmStructure:
    def test_multi_agent_systems_send_messages(self, suite_results):
        for workload in WORKLOAD_SUITE:
            if workload.config.is_multi_agent:
                assert suite_results[workload.name].messages_sent > 0, workload.name

    def test_single_agent_systems_send_none(self, suite_results):
        for workload in WORKLOAD_SUITE:
            if not workload.config.is_multi_agent:
                assert suite_results[workload.name].messages_sent == 0, workload.name

    def test_coela_runs_action_selection_calls(self, suite_metrics):
        purposes = {
            sample.purpose for sample in suite_metrics["coela"].token_samples
        }
        assert "action_selection" in purposes

    def test_centralized_plans_once_per_step(self, suite_metrics):
        metrics = suite_metrics["cmas"]
        plan_samples = [s for s in metrics.token_samples if s.purpose == "plan"]
        steps_with_plans = {s.step for s in plan_samples}
        # one joint call per step (replans allowed): <= 2 per step on average
        assert len(plan_samples) <= 2 * len(steps_with_plans)

    def test_decentralized_plans_per_agent(self, suite_metrics):
        metrics = suite_metrics["dmas"]
        config = get_workload("dmas").config
        plan_samples = [s for s in metrics.token_samples if s.purpose == "plan"]
        agents_planning = {s.agent for s in plan_samples}
        assert len(agents_planning) == config.default_agents


class TestProgressSemantics:
    def test_success_implies_full_progress(self, suite_results):
        for name, result in suite_results.items():
            if result.success:
                assert result.goal_progress == pytest.approx(1.0), name

    def test_progress_bounded(self, suite_results):
        for name, result in suite_results.items():
            assert 0.0 <= result.goal_progress <= 1.0, name
