"""Tests for system configuration and its transformations."""

import pytest

from repro.core.config import MemoryConfig, OptimizationConfig, SystemConfig
from repro.core.errors import ConfigurationError
from repro.workloads import get_workload, list_workloads


def single_agent_config(**overrides) -> SystemConfig:
    base = dict(
        name="probe",
        paradigm="modular",
        env_name="household",
        planning_model="gpt-4",
        sensing_model="vit",
        memory=MemoryConfig(capacity_steps=20),
        reflection_model="gpt-4",
    )
    base.update(overrides)
    return SystemConfig(**base)


def multi_agent_config(**overrides) -> SystemConfig:
    base = dict(
        name="probe-multi",
        paradigm="decentralized",
        env_name="transport",
        planning_model="gpt-4",
        communication_model="gpt-4",
        memory=MemoryConfig(),
        default_agents=2,
    )
    base.update(overrides)
    return SystemConfig(**base)


class TestValidation:
    def test_unknown_paradigm_rejected(self):
        with pytest.raises(ConfigurationError):
            single_agent_config(paradigm="swarm")

    def test_multi_agent_needs_two_agents(self):
        with pytest.raises(ConfigurationError):
            multi_agent_config(default_agents=1)

    def test_comm_free_multi_agent_allowed(self):
        config = multi_agent_config(communication_model=None)
        assert config.communication_model is None

    def test_memory_capacity_positive(self):
        with pytest.raises(ValueError):
            MemoryConfig(capacity_steps=0)

    def test_optimization_validation(self):
        with pytest.raises(ValueError):
            OptimizationConfig(multistep_horizon=0)
        with pytest.raises(ValueError):
            OptimizationConfig(hierarchy_cluster_size=-1)


def system(paradigm: str, action_selection_llm: bool = False, **optimizations) -> SystemConfig:
    builder = single_agent_config if paradigm == "modular" else multi_agent_config
    return builder(
        paradigm=paradigm,
        action_selection_llm=action_selection_llm,
        optimizations=OptimizationConfig(**optimizations),
    )


#: One system per flag that the loop built for it would silently ignore:
#: only the decentralized loop without hierarchy reads ``plan_then_comm``,
#: the joint planner (centralized, hybrid, any hierarchy) reads neither
#: ``multistep_horizon`` nor ``action_selection_llm``, and a single agent
#: has no clusters.
IGNORED_FLAGS = {
    "plan_then_comm/modular": ("modular", False, {"plan_then_comm": True}),
    "plan_then_comm/centralized": ("centralized", False, {"plan_then_comm": True}),
    "plan_then_comm/hybrid": ("hybrid", False, {"plan_then_comm": True}),
    "plan_then_comm/hierarchy": (
        "decentralized", False, {"plan_then_comm": True, "hierarchy_cluster_size": 2}
    ),
    "multistep/centralized": ("centralized", False, {"multistep_horizon": 3}),
    "multistep/hybrid": ("hybrid", False, {"multistep_horizon": 3}),
    "multistep/hierarchy": (
        "decentralized", False, {"multistep_horizon": 3, "hierarchy_cluster_size": 2}
    ),
    "action_selection/centralized": ("centralized", True, {}),
    "action_selection/hybrid": ("hybrid", True, {}),
    "action_selection/hierarchy": ("decentralized", True, {"hierarchy_cluster_size": 2}),
    "hierarchy/modular": ("modular", False, {"hierarchy_cluster_size": 2}),
}

#: Each flag on a loop that reads it, and Rec. 9 on every multi-agent
#: paradigm (on a hybrid system it replaces the feedback round by design).
READ_FLAGS = {
    "plan_then_comm/decentralized": ("decentralized", False, {"plan_then_comm": True}),
    "multistep/decentralized": ("decentralized", False, {"multistep_horizon": 3}),
    "multistep/modular": ("modular", False, {"multistep_horizon": 3}),
    "action_selection/decentralized": ("decentralized", True, {}),
    "action_selection/modular": ("modular", True, {}),
    "hierarchy/centralized": ("centralized", False, {"hierarchy_cluster_size": 2}),
    "hierarchy/decentralized": ("decentralized", False, {"hierarchy_cluster_size": 2}),
    "hierarchy/hybrid": ("hybrid", False, {"hierarchy_cluster_size": 2}),
}


@pytest.mark.parametrize("case", list(IGNORED_FLAGS))
def test_flags_a_loop_ignores_are_refused(case):
    paradigm, action_selection_llm, optimizations = IGNORED_FLAGS[case]
    with pytest.raises(ConfigurationError):
        system(paradigm, action_selection_llm, **optimizations)


@pytest.mark.parametrize("case", list(READ_FLAGS))
def test_flags_a_loop_reads_are_accepted(case):
    paradigm, action_selection_llm, optimizations = READ_FLAGS[case]
    config = system(paradigm, action_selection_llm, **optimizations)
    assert config.paradigm == paradigm


class TestAblation:
    @pytest.mark.parametrize(
        "module", ["sensing", "communication", "memory", "reflection", "execution"]
    )
    def test_without_clears_module(self, module):
        config = multi_agent_config(
            sensing_model="vit", reflection_model="gpt-4"
        ).without(module)
        assert config.module_flags()[module] is False

    def test_without_unknown_module_rejected(self):
        with pytest.raises(ConfigurationError):
            single_agent_config().without("planning")

    def test_without_does_not_mutate_original(self):
        config = single_agent_config()
        config.without("memory")
        assert config.memory is not None


#: One transform per way to derive a variant, each making a real change.
TRANSFORMS = {
    "without": lambda config: config.without("memory"),
    "with_planner": lambda config: config.with_planner("llama-3-8b"),
    "with_memory": lambda config: config.with_memory(capacity_steps=5, dual=True),
    "with_optimizations": lambda config: config.with_optimizations(serve_mode="batched"),
}


class TestTransforms:
    @pytest.mark.parametrize("transform", list(TRANSFORMS))
    def test_keeps_name(self, transform):
        """A variant is its workload's config with fields changed: results
        and job fingerprints name the workload, not a derived name."""
        config = multi_agent_config()
        variant = TRANSFORMS[transform](config)
        assert variant != config
        assert variant.name == config.name

    def test_stacked_transforms_keep_name(self):
        coela = get_workload("coela").config
        variant = coela.with_optimizations(comm_filter=True).with_optimizations(
            serve_mode="batched"
        )
        assert variant.name == "coela"
        assert variant.optimizations.comm_filter

    def test_transform_to_what_the_workload_has_is_the_workload(self):
        """Such a variant is the same job, so a wave that holds both runs it once."""
        coela = get_workload("coela").config
        assert coela.with_planner("gpt-4") == coela
        for name in list_workloads():
            config = get_workload(name).config
            assert config.with_optimizations(serve_mode="percall") == config

    def test_with_planner_swaps_comm_too(self):
        config = multi_agent_config().with_planner("llama-3-8b")
        assert config.planning_model == "llama-3-8b"
        assert config.communication_model == "llama-3-8b"

    def test_with_planner_keeps_missing_comm_absent(self):
        config = single_agent_config().with_planner("llama-3-8b")
        assert config.communication_model is None

    def test_with_memory_sets_capacity(self):
        config = single_agent_config().with_memory(capacity_steps=55)
        assert config.memory == MemoryConfig(capacity_steps=55)

    def test_with_memory_creates_memory_if_absent(self):
        config = single_agent_config(memory=None).with_memory(capacity_steps=10)
        assert config.memory == MemoryConfig(capacity_steps=10)

    def test_with_optimizations(self):
        config = single_agent_config().with_optimizations(multistep_horizon=3)
        assert config.optimizations.multistep_horizon == 3


class TestIntrospection:
    def test_module_flags_shape(self):
        flags = single_agent_config().module_flags()
        assert set(flags) == {
            "sensing",
            "planning",
            "communication",
            "memory",
            "reflection",
            "execution",
        }
        assert flags["planning"] is True

    def test_is_multi_agent(self):
        assert multi_agent_config().is_multi_agent
        assert not single_agent_config().is_multi_agent
