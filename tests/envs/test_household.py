"""Behavioural tests for the household environment."""

import numpy as np
import pytest
from conftest import env_rng

from repro.core.beliefs import Beliefs
from repro.core.types import Subgoal
from repro.envs import make_env, make_task


def build(seed=0, difficulty="easy", n_agents=1, **params):
    task = make_task(
        "household", difficulty=difficulty, n_agents=n_agents, seed=seed, **params
    )
    env = make_env(task, env_rng(task))
    env.tick()
    return env


def omniscient(env):
    beliefs = Beliefs.from_facts(env.static_facts())
    for obj in env.objects.values():
        from repro.core.types import Fact

        if not obj.held_by and not obj.placed_at:
            beliefs.update([Fact(obj.name, "located_in", obj.room, step=1)])
    return beliefs


class TestLifecycle:
    def test_fetch_then_deliver_completes_goal(self, rng):
        env = build(seed=3)
        obj_name, fixture = next(iter(env.goals.items()))
        fetch = env.execute("agent_0", Subgoal(name="fetch", target=obj_name), rng)
        assert fetch.success, fetch.reason
        deliver = env.execute(
            "agent_0", Subgoal(name="deliver", target=obj_name, destination=fixture), rng
        )
        assert deliver.success, deliver.reason
        assert deliver.progress_delta > 0
        assert env.objects[obj_name].placed_at == fixture

    def test_cannot_fetch_while_carrying(self, rng):
        env = build(seed=3)
        names = list(env.goals)
        assert env.execute("agent_0", Subgoal(name="fetch", target=names[0]), rng).success
        second = env.execute("agent_0", Subgoal(name="fetch", target=names[1]), rng)
        assert not second.success
        assert "hands full" in second.reason

    def test_deliver_requires_holding(self, rng):
        env = build(seed=3)
        obj_name, fixture = next(iter(env.goals.items()))
        outcome = env.execute(
            "agent_0", Subgoal(name="deliver", target=obj_name, destination=fixture), rng
        )
        assert not outcome.success

    def test_putdown_returns_object_to_world(self, rng):
        env = build(seed=3)
        obj_name = next(iter(env.goals))
        env.execute("agent_0", Subgoal(name="fetch", target=obj_name), rng)
        outcome = env.execute("agent_0", Subgoal(name="putdown", target=obj_name), rng)
        assert outcome.success
        assert env.objects[obj_name].held_by == ""

    def test_explore_moves_agent(self, rng):
        env = build(seed=3)
        target_room = env.grid.room_names()[-1]
        outcome = env.execute("agent_0", Subgoal(name="explore", target=target_room), rng)
        assert outcome.success
        assert env.agent_position("agent_0") == target_room


class TestObservability:
    def test_only_same_room_objects_visible(self):
        env = build(seed=3)
        room = env.agent_position("agent_0")
        for fact in env.visible_facts("agent_0"):
            if fact.relation == "located_in":
                assert fact.value == room

    def test_free_object_emits_heldby_retraction(self):
        env = build(seed=3)
        facts = env.visible_facts("agent_0")
        located = {f.subject for f in facts if f.relation == "located_in"}
        retracted = {f.subject for f in facts if f.relation == "held_by" and f.value == "nobody"}
        assert located == retracted

    def test_candidates_gated_on_beliefs(self):
        env = build(seed=3)
        blind = env.candidates("agent_0", Beliefs.from_facts(env.static_facts()))
        informed = env.candidates("agent_0", omniscient(env))
        blind_fetches = [c for c in blind if c.subgoal.name == "fetch" and c.fault is None]
        informed_fetches = [
            c for c in informed if c.subgoal.name == "fetch" and c.fault is None
        ]
        assert len(informed_fetches) > len(blind_fetches)


class TestProgress:
    def test_progress_counts_goal_objects_only(self, rng):
        env = build(seed=3)
        total = len(env.goals)
        obj_name, fixture = next(iter(env.goals.items()))
        env.execute("agent_0", Subgoal(name="fetch", target=obj_name), rng)
        env.execute(
            "agent_0", Subgoal(name="deliver", target=obj_name, destination=fixture), rng
        )
        assert env.goal_progress() == pytest.approx(1.0 / total)

    def test_all_goals_completes(self, rng):
        env = build(seed=3)
        for obj_name, fixture in env.goals.items():
            assert env.execute("agent_0", Subgoal(name="fetch", target=obj_name), rng).success
            assert env.execute(
                "agent_0", Subgoal(name="deliver", target=obj_name, destination=fixture), rng
            ).success
        assert env.is_success()


class TestMultiAgent:
    def test_object_claims_conflict(self, rng):
        env = build(seed=3, n_agents=2)
        obj_name = next(iter(env.goals))
        first = env.execute("agent_0", Subgoal(name="fetch", target=obj_name), rng)
        assert first.success
        second = env.execute("agent_1", Subgoal(name="fetch", target=obj_name), rng)
        assert not second.success


class TestExecutionStyles:
    def test_grasp_style_costs_more_actuation(self, rng):
        plain = build(seed=3)
        grasping = build(seed=3, grasp=True)
        obj_name = next(iter(plain.goals))
        plain_outcome = plain.execute("agent_0", Subgoal(name="fetch", target=obj_name), rng)
        grasp_outcome = grasping.execute(
            "agent_0", Subgoal(name="fetch", target=obj_name), np.random.default_rng(1)
        )
        if grasp_outcome.success and plain_outcome.success:
            assert grasp_outcome.actuation_seconds > plain_outcome.actuation_seconds

    def test_rrt_style_charges_iterations(self, rng):
        env = build(seed=3, arm_rrt=True)
        obj_name = next(iter(env.goals))
        outcome = env.execute("agent_0", Subgoal(name="fetch", target=obj_name), rng)
        assert outcome.compute.rrt_iterations > 0
