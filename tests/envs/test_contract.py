"""Contract tests every environment must satisfy.

These are the invariants the framework relies on: candidate availability,
goal-progress bounds, deterministic construction, the shared ``idle``
outcome, failure on unknown subgoals, and claim semantics.
"""

import pytest
from conftest import env_rng

from repro.core.beliefs import Beliefs
from repro.core.types import Subgoal
from repro.envs import ENVIRONMENTS, make_env, make_task
from repro.envs.base import IDLE

MULTI_AGENT_ONLY = {"boxworld"}


def env_for(name: str, seed: int = 0, difficulty: str = "medium"):
    n_agents = 2 if name in MULTI_AGENT_ONLY else 1
    task = make_task(name, difficulty=difficulty, n_agents=n_agents, seed=seed)
    return make_env(task, env_rng(task))


def full_beliefs(env, agent):
    beliefs = Beliefs.from_facts(env.static_facts())
    for member in env.agents:
        beliefs.update(env.visible_facts(member))
    return beliefs


@pytest.fixture(params=sorted(ENVIRONMENTS))
def env(request):
    built = env_for(request.param)
    built.tick()
    return built


class TestObservation:
    def test_visible_facts_are_facts(self, env):
        facts = env.visible_facts(env.agents[0])
        for fact in facts:
            assert fact.subject and fact.relation

    def test_observation_wraps_facts(self, env):
        agent = env.agents[0]
        facts = tuple(env.visible_facts(agent))
        position = env.agent_position(agent)
        observation = env.observation(agent, position, facts)
        assert observation.agent == agent
        assert observation.facts == facts
        assert observation.position == position
        assert observation.step == env.state.step_index

    def test_static_facts_stable(self, env):
        assert env.static_facts() == env.static_facts()

    def test_describe_task_nonempty(self, env):
        assert len(env.describe_task()) > 10


class TestAffordances:
    def test_candidates_nonempty(self, env):
        agent = env.agents[0]
        candidates = env.candidates(agent, full_beliefs(env, agent))
        assert candidates

    def test_candidates_include_fault_material(self, env):
        agent = env.agents[0]
        candidates = env.candidates(agent, full_beliefs(env, agent))
        assert any(candidate.fault is not None for candidate in candidates)

    def test_some_feasible_candidate_exists(self, env):
        agent = env.agents[0]
        candidates = env.candidates(agent, full_beliefs(env, agent))
        assert any(c.feasible and c.fault is None for c in candidates)

    def test_empty_beliefs_still_yield_options(self, env):
        candidates = env.candidates(env.agents[0], Beliefs())
        assert candidates  # at minimum idle/explore fallbacks


class TestExecution:
    def test_unknown_subgoal_fails_cleanly(self, env, rng):
        outcome = env.execute(env.agents[0], Subgoal(name="levitate"), rng)
        assert not outcome.success
        assert outcome.reason

    def test_idle_is_the_shared_outcome_and_changes_nothing(self, env, rng):
        env.claim("resource:x", env.agents[0])
        progress = env.goal_progress()
        claims = dict(env.state.claims)
        step_index = env.state.step_index
        outcome = env.execute(env.agents[0], Subgoal("idle"), rng)
        assert outcome is IDLE
        assert env.goal_progress() == progress
        assert env.state.claims == claims
        assert env.state.step_index == step_index

    def test_best_candidate_executes(self, env, rng):
        agent = env.agents[0]
        candidates = env.candidates(agent, full_beliefs(env, agent))
        best = max(
            (c for c in candidates if c.feasible and c.fault is None),
            key=lambda c: c.utility,
        )
        outcome = env.execute(agent, best.subgoal, rng)
        assert outcome.actuation_seconds >= 0
        assert outcome.primitive_count >= 0

    def test_expected_primitives_positive(self, env):
        agent = env.agents[0]
        candidates = env.candidates(agent, full_beliefs(env, agent))
        for candidate in candidates:
            if candidate.feasible and candidate.fault is None:
                assert env.expected_primitives(agent, candidate.subgoal) >= 1


class TestGoals:
    def test_progress_in_unit_interval(self, env):
        assert 0.0 <= env.goal_progress() <= 1.0

    def test_fresh_env_not_done(self, env):
        assert not env.is_success()


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
    def test_same_seed_same_world(self, name):
        a = env_for(name, seed=5)
        b = env_for(name, seed=5)
        assert a.describe_task() == b.describe_task()
        assert [a.agent_position(x) for x in a.agents] == [
            b.agent_position(x) for x in b.agents
        ]

    #: Some environments hide their seeded state from the first
    #: observation (deposits behind exploration, objects in other rooms);
    #: these extractors expose it for the cross-seed variation check.
    HIDDEN_STATE = {
        "mineworld": lambda env: tuple(sorted(env.deposit_area.items())),
        "transport": lambda env: tuple(
            (obj.name, obj.room) for obj in env.objects.values()
        ),
        "household": lambda env: tuple(sorted(env.goals.items())),
        "boxworld": lambda env: tuple(
            (box.name, box.cell, box.target) for box in env.boxes.values()
        ),
    }

    @pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
    def test_different_seeds_differ_somewhere(self, name):
        def fingerprint(seed: int) -> tuple:
            env = env_for(name, seed=seed)
            env.tick()
            world = tuple(
                (f.subject, f.relation, f.value)
                for agent in env.agents
                for f in env.visible_facts(agent)
            )
            statics = tuple(
                (f.subject, f.relation, f.value) for f in env.static_facts()
            )
            hidden = self.HIDDEN_STATE.get(name, lambda _env: ())(env)
            return (env.describe_task(), world, statics, hidden)

        assert len({fingerprint(seed) for seed in range(6)}) > 1


class TestClaims:
    def test_claim_exclusive_per_step(self, env):
        assert env.claim("resource:x", "agent_0")
        assert not env.claim("resource:x", "agent_1")
        assert env.claim("resource:x", "agent_0")  # idempotent for holder

    def test_tick_clears_claims(self, env):
        env.claim("resource:x", "agent_0")
        env.tick()
        assert env.claim("resource:x", "agent_1")

    def test_tick_advances_step(self, env):
        before = env.state.step_index
        env.tick()
        assert env.state.step_index == before + 1


class TestLocationVocabulary:
    def test_vocabulary_is_list_of_strings(self, env):
        vocabulary = env.location_vocabulary()
        assert isinstance(vocabulary, list)
        assert all(isinstance(item, str) for item in vocabulary)
