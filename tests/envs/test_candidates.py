"""Interned candidate enumeration (``Environment.candidates``/``option``).

Every environment enumerates its options afresh on each call, and each
option is the episode's one interned :class:`Candidate` for its values.
These tests drive a short seeded rollout of every environment family and
check, step by step, that equal beliefs give equal tuples of the very
same objects, that interning never merges distinct values, and that
environments share nothing.  A household belief delta must change
exactly the options it affects.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import small_env

from repro.core.beliefs import Beliefs
from repro.core.types import Candidate, Fact, Subgoal
from repro.envs import ENVIRONMENTS

ROLLOUT_STEPS = 8


def _env(name: str, seed: int = 3):
    n_agents = 2 if name == "boxworld" else 1
    return small_env(name, difficulty="medium", n_agents=n_agents, seed=seed)


def _rollout(env, steps: int = ROLLOUT_STEPS):
    """Yield (agent, beliefs) once per step of a greedy seeded rollout."""
    rng = np.random.default_rng(0)
    agent = env.agents[0]
    beliefs = Beliefs.from_facts(env.static_facts())
    for _ in range(steps):
        env.tick()
        for member in env.agents:
            beliefs.update(env.visible_facts(member))
        yield agent, beliefs
        options = env.candidates(agent, beliefs)
        best = max(
            (c for c in options if c.feasible and c.fault is None),
            key=lambda c: c.utility,
        )
        env.execute(agent, best.subgoal, rng)


def _fields(candidate: Candidate) -> tuple:
    subgoal = candidate.subgoal
    return (
        subgoal.name,
        subgoal.target,
        subgoal.destination,
        candidate.utility,
        candidate.feasible,
        candidate.fault,
    )


@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
class TestInterning:
    def test_equal_beliefs_give_the_same_objects(self, name):
        env = _env(name)
        for agent, beliefs in _rollout(env):
            first = env.candidates(agent, beliefs)
            second = env.candidates(agent, beliefs.copy())
            assert isinstance(first, tuple)
            assert second == first
            assert all(a is b for a, b in zip(first, second))

    def test_interning_never_merges_distinct_values(self, name):
        env = _env(name)
        for agent, beliefs in _rollout(env):
            for candidate in env.candidates(agent, beliefs):
                name_, target, destination, utility, feasible, fault = _fields(candidate)
                fresh = Candidate(Subgoal(name_, target, destination), utility, feasible, fault)
                assert candidate == fresh
                assert env.option(*_fields(candidate)) is candidate
        # Every entry of the table holds exactly the values it is keyed
        # on, with the types the environments pass (an int utility would
        # merge with its float twin and change its repr).
        for key, candidate in env._options.items():
            assert _fields(candidate) == key
            assert type(candidate.utility) is float
            assert type(candidate.feasible) is bool

    def test_environments_share_no_candidate(self, name):
        one, two = _env(name), _env(name)
        # Both lists stay alive, so no id can be recycled between them.
        first = [c for agent, beliefs in _rollout(one) for c in one.candidates(agent, beliefs)]
        second = [c for agent, beliefs in _rollout(two) for c in two.candidates(agent, beliefs)]
        assert second == first
        assert not {id(c) for c in first} & {id(c) for c in second}


class TestHouseholdDeltas:
    """A belief delta changes exactly the options that read it."""

    def _setup(self):
        env = small_env("household", difficulty="easy", n_agents=1, seed=3)
        beliefs = Beliefs.from_facts(env.static_facts())
        beliefs.update(
            [
                Fact(subject=obj, relation="located_in", value="kitchen", step=1)
                for obj in list(env.goals)[:2]
            ]
        )
        return env, beliefs

    def test_visited_delta_changes_only_that_room(self):
        env, beliefs = self._setup()
        first = env.candidates("agent_0", beliefs)
        room = env.grid.room_names()[0]
        beliefs.update([Fact(subject=room, relation="visited", value="true", step=2)])
        second = env.candidates("agent_0", beliefs)

        assert len(second) == len(first)
        changed = [(a, b) for a, b in zip(first, second) if a is not b]
        assert len(changed) == 1
        before, after = changed[0]
        assert before.subgoal == after.subgoal == Subgoal(name="explore", target=room)
        assert (before.utility, after.utility) == (0.4, 0.12)

    def test_newly_located_object_adds_exactly_one_fetch(self):
        env, beliefs = self._setup()
        first = env.candidates("agent_0", beliefs)
        newly_seen = list(env.goals)[2]
        beliefs.update([Fact(subject=newly_seen, relation="located_in", value="kitchen", step=2)])
        second = env.candidates("agent_0", beliefs)

        added = [c for c in second if c not in first]
        assert [c.subgoal for c in added] == [Subgoal(name="fetch", target=newly_seen)]
        kept = [c for c in second if c is not added[0]]
        assert len(kept) == len(first)
        assert all(a is b for a, b in zip(kept, first))
