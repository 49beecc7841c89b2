"""Integration tests: paradigm loops, agent assembly, and the runners."""

import ast
from pathlib import Path

import pytest

import repro.core
from repro.core.agent import AgentState, FAULT_REPEAT_CAP
from repro.core.config import MemoryConfig, SystemConfig
from repro.core.errors import ConfigurationError
from repro.core.executor import SerialExecutor
from repro.core.fleet import dispatch
from repro.core.metrics import EpisodeResult, aggregate
from repro.core.modules.reflection import ReflectionReport
from repro.core.paradigms import PARADIGM_LOOPS, HierarchicalLoop
from repro.core.paradigms.decentralized import dialogue_rounds
from repro.core.runner import build_loop, build_task, run_episode, trial_jobs
from repro.core.types import Decision, Subgoal
from repro.workloads import get_workload


def modular_config(**overrides):
    base = dict(
        name="mini-modular",
        paradigm="modular",
        env_name="household",
        planning_model="gpt-4",
        sensing_model="vit",
        memory=MemoryConfig(capacity_steps=20),
        reflection_model="gpt-4",
    )
    base.update(overrides)
    return SystemConfig(**base)


class TestLoopsRun:
    @pytest.mark.parametrize("workload", ["jarvis-1", "mindagent", "coela", "hmas", "embodiedgpt"])
    def test_suite_workloads_produce_results(self, workload):
        result = run_episode(get_workload(workload).config, seed=0, difficulty="easy")
        assert isinstance(result, EpisodeResult)
        assert result.steps >= 1
        assert result.sim_seconds > 0
        assert result.llm_calls > 0

    def test_all_paradigm_loops_registered(self):
        assert set(PARADIGM_LOOPS) == {
            "modular",
            "centralized",
            "decentralized",
            "hybrid",
        }

    def test_success_stops_early(self):
        result = run_episode(modular_config(), seed=2, difficulty="easy")
        if result.success:
            assert result.steps < result.horizon


class TestDeterminism:
    def test_same_seed_identical_metrics(self):
        config = get_workload("coela").config
        a = run_episode(config, seed=11, difficulty="easy")
        b = run_episode(config, seed=11, difficulty="easy")
        assert a.sim_seconds == pytest.approx(b.sim_seconds)
        assert a.steps == b.steps
        assert a.success == b.success
        assert a.prompt_tokens == b.prompt_tokens

    def test_different_seeds_vary(self):
        config = get_workload("coela").config
        times = {run_episode(config, seed=s, difficulty="easy").sim_seconds for s in range(4)}
        assert len(times) > 1


class TestRunner:
    def test_build_task_uses_config_defaults(self):
        config = get_workload("cmas").config
        task = build_task(config)
        assert task.env_name == "boxworld"
        assert task.n_agents == config.default_agents

    def test_build_task_overrides(self):
        config = get_workload("cmas").config
        task = build_task(config, difficulty="hard", n_agents=6, horizon=33)
        assert (task.difficulty, task.n_agents, task.horizon) == ("hard", 6, 33)

    def test_run_trials_aggregates(self):
        jobs = trial_jobs(modular_config(), 3, difficulty="easy")
        result = aggregate(dispatch(jobs, SerialExecutor()))
        assert result.n_trials == 3
        assert 0.0 <= result.success_rate <= 1.0

    def test_team_size_follows_the_config_rule(self):
        """A team size set per task meets the config's own rule: a lone
        agent of a multi-agent system is refused up front instead of
        messaging nobody, or of failing late in the environment."""
        for workload in ("coela", "mindagent", "hmas"):
            config = get_workload(workload).config
            with pytest.raises(ConfigurationError, match="needs >= 2 agents"):
                run_episode(config, difficulty="easy", n_agents=1)
        jarvis = get_workload("jarvis-1").config
        assert build_task(jarvis, n_agents=1).n_agents == 1
        with pytest.raises(ValueError, match="n_agents must be >= 1"):
            build_task(jarvis, n_agents=0)

    def test_hierarchy_override_selects_loop(self):
        config = get_workload("mindagent").config.with_optimizations(hierarchy_cluster_size=2)
        task = build_task(config, difficulty="easy", n_agents=4)
        loop = build_loop(config, task, seed=0)
        assert isinstance(loop, HierarchicalLoop)


class TestAgentState:
    def test_blacklist_ttl(self):
        state = AgentState()
        state.add_blacklist(Subgoal("fetch", target="mug"), step=5)
        assert Subgoal("fetch", target="mug") in state.blacklisted(step=7)
        assert Subgoal("fetch", target="mug") not in state.blacklisted(step=20)

    def test_repeat_fault_requires_uncorrected(self, rng):
        state = AgentState()
        decision = Decision(
            subgoal=Subgoal("good"), fault=None, prompt_tokens=0, output_tokens=0
        )
        assert state.maybe_repeat_fault(decision, rng) is decision

    def test_repeat_fault_overrides_subgoal(self, rng):
        from repro.core.errors import FaultKind

        state = AgentState()
        bad = Decision(
            subgoal=Subgoal("bad"),
            fault=FaultKind.SUBOPTIMAL,
            prompt_tokens=0,
            output_tokens=0,
        )
        state.note_outcome(bad, wasted=True, corrected=False)
        fresh = Decision(
            subgoal=Subgoal("good"), fault=None, prompt_tokens=0, output_tokens=0
        )
        repeats = sum(
            1
            for _ in range(100)
            if state.maybe_repeat_fault(fresh, rng).subgoal == Subgoal("bad")
        )
        assert repeats > 50

    def test_correction_clears_repetition(self, rng):
        from repro.core.errors import FaultKind

        state = AgentState()
        bad = Decision(
            subgoal=Subgoal("bad"),
            fault=FaultKind.SUBOPTIMAL,
            prompt_tokens=0,
            output_tokens=0,
        )
        state.note_outcome(bad, wasted=True, corrected=False)
        state.note_outcome(bad, wasted=True, corrected=True)
        fresh = Decision(
            subgoal=Subgoal("good"), fault=None, prompt_tokens=0, output_tokens=0
        )
        assert state.maybe_repeat_fault(fresh, rng) is fresh

    def test_repetition_caps(self, rng):
        from repro.core.errors import FaultKind

        state = AgentState()
        bad = Decision(
            subgoal=Subgoal("bad"),
            fault=FaultKind.REPEATED,
            prompt_tokens=0,
            output_tokens=0,
        )
        for _ in range(FAULT_REPEAT_CAP + 2):
            state.note_outcome(bad, wasted=True, corrected=False)
        fresh = Decision(
            subgoal=Subgoal("good"), fault=None, prompt_tokens=0, output_tokens=0
        )
        assert state.maybe_repeat_fault(fresh, rng) is fresh


class TestTeamReview:
    def test_lead_repairs_a_worker_it_judges_failed_without_a_retry(self, monkeypatch):
        config = get_workload("ola").config
        loop = build_loop(config, build_task(config, difficulty="easy", seed=0), seed=0)
        lead, worker = loop.agents
        bundles = {}
        perceive_all = loop.perceive_all

        def perceive_and_keep(step):
            bundles.update(perceive_all(step))
            return bundles

        worker_decisions = []
        worker_act = worker.act

        def act(env, decision):
            worker_decisions.append(decision)
            return worker_act(env, decision)

        def review(step, decision, outcome):
            # The worker's step fails and asks for a replan; nothing else fails.
            if worker_decisions and decision is worker_decisions[-1]:
                return ReflectionReport(True, True, *bundles[worker.name].current_facts[0].key())
            return ReflectionReport(judged_failure=False, should_replan=False)

        def worker_review(*args):
            raise AssertionError("a reviewed worker does not reflect itself")

        forgotten = []
        lead_forget = lead.memory.forget

        def forget(subject, relation):
            forgotten.append((subject, relation))
            lead_forget(subject, relation)

        monkeypatch.setattr(loop, "perceive_all", perceive_and_keep)
        monkeypatch.setattr(worker, "act", act)
        monkeypatch.setattr(lead.reflection, "review", review)
        monkeypatch.setattr(worker.reflection, "review", worker_review)
        monkeypatch.setattr(lead.memory, "forget", forget)
        loop.step(1)

        (record,) = [r for r in loop.metrics.records if r.agent == worker.name]
        assert record.reflected and not record.replanned
        assert len(worker_decisions) == 1  # no retry
        assert loop.metrics.replans == 0
        assert worker_decisions[0].subgoal in lead.state.blacklisted(1)
        assert not worker.state.blacklisted(1)
        slot = bundles[worker.name].current_facts[0].key()
        assert forgotten == [slot]
        assert all(fact.key() != slot for fact in lead.memory.retrieve(1).facts)


class TestDialogueRounds:
    def test_grows_with_team_size(self):
        assert dialogue_rounds(2) == 1
        assert dialogue_rounds(6) >= dialogue_rounds(2)
        assert dialogue_rounds(12) > dialogue_rounds(4)


class TestAblationsRun:
    @pytest.mark.parametrize("module", ["communication", "memory", "reflection", "execution"])
    def test_hmas_ablations_run(self, module):
        config = get_workload("hmas").config.without(module)
        result = run_episode(config, seed=0, difficulty="easy")
        assert result.steps >= 1

    def test_no_exec_hits_step_limit_more(self):
        config = get_workload("jarvis-1").config
        baseline = run_episode(config, seed=3, difficulty="easy")
        crippled = run_episode(config.without("execution"), seed=3, difficulty="easy")
        assert crippled.steps >= baseline.steps


#: The layers built on ``repro.core``, which core itself must not import.
UPPER_LAYERS = ("repro.experiments", "repro.analysis", "repro.workloads")


def _imported_modules(path: Path, package: str) -> list[tuple[int, str]]:
    """(line, dotted name) of every import in ``path``, nested ones included;
    ``from a import b`` yields both ``a`` and ``a.b``."""
    found = []
    parts = package.split(".")
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(parts[: len(parts) - node.level + 1] if node.level else [])
            module = ".".join(filter(None, (base, node.module or "")))
            found.append((node.lineno, module))
            found += [(node.lineno, f"{module}.{alias.name}") for alias in node.names]
    return found


class TestLayering:
    def test_core_imports_no_upper_layer(self):
        root = Path(repro.core.__file__).parent
        paths = sorted(root.rglob("*.py"))
        assert len(paths) > 20  # every core module, paradigms and modules included
        offenders = []
        for path in paths:
            relative = path.relative_to(root.parent.parent)
            for line, name in _imported_modules(path, ".".join(relative.parent.parts)):
                if any(name == layer or name.startswith(layer + ".") for layer in UPPER_LAYERS):
                    offenders.append(f"{relative}:{line} imports {name}")
        assert not offenders, offenders

    def test_import_walk_sees_nested_and_relative_imports(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(
            "def build():\n"
            "    from repro.experiments.ablations import grid\n"
            "    from .. import workloads\n"
        )
        names = [name for _, name in _imported_modules(module, "repro.core")]
        assert "repro.experiments.ablations" in names
        assert "repro.workloads" in names
