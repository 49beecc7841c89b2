"""Tests for the optimization recommendations and the hierarchy loop.

Each recommendation is a field of the config's ``OptimizationConfig`` or
``MemoryConfig``, set with ``SystemConfig.with_optimizations`` or
``.with_memory``.
"""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.paradigms import cluster_agents
from repro.core.runner import build_loop, build_task, run_episode
from repro.workloads import get_workload


class TestTransforms:
    def test_multistep_sets_horizon(self):
        config = get_workload("jarvis-1").config.with_optimizations(multistep_horizon=4)
        assert config.optimizations.multistep_horizon == 4

    def test_plan_then_comm_flag(self):
        config = get_workload("coela").config.with_optimizations(plan_then_comm=True)
        assert config.optimizations.plan_then_comm

    def test_comm_filter_flag(self):
        config = get_workload("dmas").config.with_optimizations(comm_filter=True)
        assert config.optimizations.comm_filter

    def test_batching_pins_batched_serving(self):
        config = get_workload("coela").config.with_optimizations(serve_mode="batched")
        assert config.optimizations.serve_mode == "batched"

    def test_hierarchy_rejects_single_agent(self):
        with pytest.raises(ConfigurationError):
            get_workload("jarvis-1").config.with_optimizations(hierarchy_cluster_size=3)

    def test_dual_memory_sets_flag(self):
        config = get_workload("coela").config.with_memory(dual=True)
        assert config.memory is not None and config.memory.dual

    def test_quantization_and_runtime_flags(self):
        config = get_workload("combo").config.with_optimizations(
            quantization="awq", runtime="mlc"
        )
        assert config.optimizations.quantization == "awq"
        assert config.optimizations.runtime == "mlc"


class TestClusterPartition:
    def test_partition_sizes(self):
        agents = list(range(10))
        clusters = cluster_agents(agents, 3)
        assert [len(c) for c in clusters] == [3, 3, 3, 1]

    def test_partition_preserves_all(self):
        agents = list(range(7))
        clusters = cluster_agents(agents, 4)
        assert [a for cluster in clusters for a in cluster] == agents

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            cluster_agents([1, 2], 0)


class TestOptimizationEffects:
    """The directional claims of the paper's recommendations."""

    def test_multistep_reduces_planning_calls_per_step(self):
        def plan_calls_per_step(config) -> float:
            calls = steps = 0
            for seed in range(3):
                task = build_task(config, difficulty="easy", seed=seed)
                loop = build_loop(config, task, seed)
                result = loop.run()
                calls += sum(
                    1 for sample in loop.metrics.token_samples if sample.purpose == "plan"
                )
                steps += result.steps
            return calls / max(1, steps)

        base = get_workload("jarvis-1").config
        assert plan_calls_per_step(
            base.with_optimizations(multistep_horizon=3)
        ) < plan_calls_per_step(base)

    def test_quantization_reduces_latency_for_local_models(self):
        base = get_workload("combo").config
        baseline = run_episode(base, seed=4, difficulty="easy")
        optimized = run_episode(
            base.with_optimizations(quantization="awq"), seed=4, difficulty="easy"
        )
        assert optimized.sim_seconds < baseline.sim_seconds * 1.05

    def test_comm_filter_reduces_messages(self):
        base = get_workload("dmas").config
        baseline = sum(
            run_episode(base, seed=s, difficulty="easy").messages_sent for s in range(3)
        )
        optimized = sum(
            run_episode(
                base.with_optimizations(comm_filter=True), seed=s, difficulty="easy"
            ).messages_sent
            for s in range(3)
        )
        assert optimized <= baseline

    def test_plan_then_comm_reduces_messages(self):
        base = get_workload("coela").config
        baseline = sum(
            run_episode(base, seed=s, difficulty="easy").messages_sent for s in range(3)
        )
        optimized = sum(
            run_episode(
                base.with_optimizations(plan_then_comm=True), seed=s, difficulty="easy"
            ).messages_sent
            for s in range(3)
        )
        assert optimized <= baseline

    def test_hierarchy_runs_at_scale(self):
        config = (
            get_workload("mindagent")
            .config.with_agents(6)
            .with_optimizations(hierarchy_cluster_size=3)
        )
        result = run_episode(config, seed=0, difficulty="easy")
        assert result.steps >= 1

    def test_batching_runs_for_local_decentralized(self):
        config = get_workload("combo").config.with_optimizations(serve_mode="batched")
        result = run_episode(config, seed=0, difficulty="easy")
        assert result.steps >= 1

    def test_dual_memory_cuts_retrieval_latency(self):
        from repro.core.clock import ModuleName

        base = get_workload("coela").config.with_memory(capacity_steps=60)
        baseline = run_episode(base, seed=5, difficulty="easy")
        optimized = run_episode(base.with_memory(dual=True), seed=5, difficulty="easy")
        base_mem = baseline.module_seconds.get(ModuleName.MEMORY, 0.0) / max(
            1, baseline.steps
        )
        opt_mem = optimized.module_seconds.get(ModuleName.MEMORY, 0.0) / max(
            1, optimized.steps
        )
        assert opt_mem <= base_mem
