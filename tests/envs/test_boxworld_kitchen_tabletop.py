"""Behavioural tests for boxworld, kitchen, and tabletop environments."""

import numpy as np
import pytest
from conftest import small_env

from repro.core.beliefs import Beliefs
from repro.core.types import Subgoal
from repro.envs.kitchen import ATTEMPT_SUCCESS_P, MICRO_TASKS


def boxworld(seed=0, n_agents=3, difficulty="easy", **params):
    env = small_env("boxworld", difficulty=difficulty, n_agents=n_agents, seed=seed, **params)
    env.tick()
    return env


def kitchen(seed=0, difficulty="easy"):
    env = small_env("kitchen", difficulty=difficulty, seed=seed)
    env.tick()
    return env


def tabletop(seed=0, n_agents=2, difficulty="easy"):
    env = small_env("tabletop", difficulty=difficulty, n_agents=n_agents, seed=seed)
    env.tick()
    return env


def omniscient(env):
    beliefs = Beliefs.from_facts(env.static_facts())
    for agent in env.agents:
        beliefs.update(env.visible_facts(agent))
    return beliefs


class TestBoxWorld:
    def test_move_toward_target_progresses(self, rng):
        env = boxworld()
        box = next(b for b in env.boxes.values() if not b.done)
        arm = next(a for a in env.agents if env._arms[a].reaches(box.cell))
        toward = box.cell + (1 if box.target > box.cell else -1)
        if env._arms[arm].reaches(toward):
            before = abs(box.cell - box.target)
            outcome = env.execute(
                arm, Subgoal(name="move_box", target=box.name, destination=f"cell_{toward}"), rng
            )
            assert outcome.success
            assert abs(box.cell - box.target) == before - 1

    def test_out_of_reach_rejected(self, rng):
        env = boxworld(n_agents=4)
        box = next(iter(env.boxes.values()))
        far_arm = max(
            env.agents, key=lambda a: abs(env._arms[a].base - box.cell)
        )
        if not env._arms[far_arm].reaches(box.cell):
            outcome = env.execute(
                far_arm,
                Subgoal(name="move_box", target=box.name, destination=f"cell_{box.cell + 1}"),
                rng,
            )
            assert not outcome.success

    def test_single_clean_move_candidate_per_direction(self):
        env = boxworld()
        candidates = env.candidates(env.agents[0], omniscient(env))
        away_moves = [
            c
            for c in candidates
            if c.subgoal.name == "move_box" and c.utility < 0.05
        ]
        idle = [c for c in candidates if c.subgoal.name == "idle"]
        assert idle
        for away in away_moves:
            assert away.utility < idle[0].utility


class TestKitchen:
    def test_perform_completes_micro_task(self):
        env = kitchen()
        rng = np.random.default_rng(0)
        name = next(iter(env.micro_tasks))
        for _ in range(20):
            outcome = env.execute("agent_0", Subgoal(name="perform", target=name), rng)
            if outcome.success:
                break
        assert env.micro_tasks[name].done

    def test_attempts_can_fail(self):
        env = kitchen(difficulty="hard")
        rng = np.random.default_rng(1)
        outcomes = [
            env.execute("agent_0", Subgoal(name="perform", target=name), rng)
            for name in list(env.micro_tasks)
        ]
        expected_failures = len(outcomes) * (1 - ATTEMPT_SUCCESS_P)
        assert any(not o.success for o in outcomes) or expected_failures < 1.5

    def test_done_task_rejected(self, rng):
        env = kitchen()
        name = next(iter(env.micro_tasks))
        env.micro_tasks[name].done = True
        outcome = env.execute("agent_0", Subgoal(name="perform", target=name), rng)
        assert not outcome.success

    def test_instance_names_unique(self):
        env = kitchen(difficulty="hard")
        assert len(env.micro_tasks) == len(set(env.micro_tasks))

    def test_instances_drawn_from_library(self):
        env = kitchen(difficulty="medium")
        for name in env.micro_tasks:
            base = name.rsplit("_", 1)[0]
            assert base in MICRO_TASKS

    def test_policy_compute_charged(self, rng):
        env = kitchen()
        name = next(iter(env.micro_tasks))
        outcome = env.execute("agent_0", Subgoal(name="perform", target=name), rng)
        assert outcome.compute.policy_forwards > 0


class TestTabletop:
    def test_transport_delivers_reachable_object(self, rng):
        env = tabletop()
        beliefs = omniscient(env)
        candidates = env.candidates("agent_0", beliefs)
        transports = [
            c for c in candidates if c.subgoal.name == "transport" and c.feasible
        ]
        if not transports:
            pytest.skip("no directly transportable object for this seed")
        outcome = env.execute("agent_0", transports[0].subgoal, rng)
        assert outcome.success
        assert env.objects[transports[0].subgoal.target].delivered

    def test_stage_moves_to_exchange(self, rng):
        env = tabletop(seed=2)
        beliefs = omniscient(env)
        stages = [
            c
            for c in env.candidates("agent_0", beliefs)
            if c.subgoal.name == "stage" and c.feasible
        ]
        if not stages:
            pytest.skip("no staging needed for this seed")
        outcome = env.execute("agent_0", stages[0].subgoal, rng)
        assert outcome.success
        moved = env.objects[stages[0].subgoal.target]
        assert env._in_exchange(moved.position)

    def test_partial_observability(self):
        env = tabletop(seed=0)
        all_objects = set(env.objects)
        seen_by_one = {f.subject for f in env.visible_facts("agent_0")}
        # With two opposing arms, at least sometimes the far side is hidden.
        union = seen_by_one | {f.subject for f in env.visible_facts("agent_1")}
        assert seen_by_one <= union
        assert union <= all_objects | set()

    def test_unknown_object_not_offered(self):
        env = tabletop()
        blind = env.candidates("agent_0", Beliefs())
        assert not [
            c for c in blind if c.subgoal.name in ("transport", "stage") and c.fault is None
        ]

    def test_rrt_compute_charged(self, rng):
        env = tabletop()
        beliefs = omniscient(env)
        movable = [
            c
            for c in env.candidates("agent_0", beliefs)
            if c.subgoal.name in ("transport", "stage") and c.feasible
        ]
        if not movable:
            pytest.skip("nothing movable for this seed")
        outcome = env.execute("agent_0", movable[0].subgoal, rng)
        assert outcome.compute.rrt_iterations > 0
