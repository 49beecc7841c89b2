"""Unit tests for the incremental candidate cache (envs/candidates.py).

Covers the framework contract (slot-level invalidation, identity-stable
assembly) and its wiring into a real environment: a belief delta must
rebuild exactly the affected candidate group and reuse every other
candidate object untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.beliefs import Beliefs
from repro.core.types import Candidate, Fact, Subgoal, TaskSpec
from repro.envs import make_env
from repro.envs.candidates import CandidateCache, CandidateSlot


def _slot(key: str, deps: tuple, names: list[str], calls: dict) -> CandidateSlot:
    def build() -> list[Candidate]:
        calls[key] = calls.get(key, 0) + 1
        return [Candidate(subgoal=Subgoal(name=name), utility=0.5) for name in names]

    return CandidateSlot(key, deps, build)


class TestCandidateCacheFramework:
    def test_first_assembly_builds_every_slot(self):
        cache, calls = CandidateCache(), {}
        slots = [_slot("a", (1,), ["x"], calls), _slot("b", (2,), ["y", "z"], calls)]
        result = cache.assemble("agent_0", slots)
        assert [c.subgoal.name for c in result] == ["x", "y", "z"]
        assert calls == {"a": 1, "b": 1}

    def test_unchanged_deps_reuse_slot_and_tuple_identity(self):
        cache, calls = CandidateCache(), {}
        first = cache.assemble("agent_0", [_slot("a", (1,), ["x"], calls)])
        second = cache.assemble("agent_0", [_slot("a", (1,), ["x"], calls)])
        assert second is first  # identical tuple object, not just equal
        assert calls == {"a": 1}
        assert cache.reused_slots == 1

    def test_delta_rebuilds_exactly_the_changed_slot(self):
        cache, calls = CandidateCache(), {}

        def slots(dep_a: int) -> list[CandidateSlot]:
            return [
                _slot("a", (dep_a,), ["x"], calls),
                _slot("b", (0,), ["y"], calls),
            ]

        first = cache.assemble("agent_0", slots(1))
        second = cache.assemble("agent_0", slots(2))
        assert calls == {"a": 2, "b": 1}
        assert second is not first
        # The unaffected group's candidate object is reused, not rebuilt.
        assert second[1] is first[1]

    def test_slot_disappearing_reshapes_the_list(self):
        cache, calls = CandidateCache(), {}
        cache.assemble("agent_0", [_slot("a", (), ["x"], calls), _slot("b", (), ["y"], calls)])
        shrunk = cache.assemble("agent_0", [_slot("b", (), ["y"], calls)])
        assert [c.subgoal.name for c in shrunk] == ["y"]
        assert calls == {"a": 1, "b": 1}  # b still served from cache

    def test_agents_are_independent(self):
        cache, calls = CandidateCache(), {}
        cache.assemble("agent_0", [_slot("a", (1,), ["x"], calls)])
        cache.assemble("agent_1", [_slot("a", (1,), ["x"], calls)])
        assert calls == {"a": 2}


def _household(seed: int = 3):
    task = TaskSpec(env_name="household", difficulty="easy", n_agents=1, seed=seed)
    return make_env(task, np.random.default_rng(seed))


@pytest.fixture
def fast_env():
    return _household()


class TestHouseholdInvalidation:
    """Belief delta -> exactly the affected candidates rebuilt."""

    def _beliefs(self, env) -> Beliefs:
        beliefs = Beliefs.from_facts(env.static_facts())
        beliefs.update(
            [Fact(subject=obj, relation="located_in", value="kitchen", step=1)
             for obj in list(env.goals)[:2]]
        )
        return beliefs

    def test_visited_delta_rebuilds_only_that_room(self, fast_env):
        env = fast_env
        beliefs = self._beliefs(env)
        first = env.candidates("agent_0", beliefs)
        cache = env._candidate_cache
        rebuilt_before = cache.rebuilt_slots
        # Same beliefs: everything reused, same tuple identity.
        assert env.candidates("agent_0", beliefs) is first
        assert cache.rebuilt_slots == rebuilt_before

        room = env.grid.room_names()[0]
        beliefs.update([Fact(subject=room, relation="visited", value="true", step=2)])
        second = env.candidates("agent_0", beliefs)
        assert cache.rebuilt_slots == rebuilt_before + 1  # exactly one slot
        assert second is not first

        by_name = {
            (c.subgoal.name, c.subgoal.target): c for c in first
        }
        changed = [
            c
            for c in second
            if by_name.get((c.subgoal.name, c.subgoal.target)) is not c
        ]
        # Only the explored room's candidate was rebuilt; every other
        # candidate object is the same instance as before.
        assert [(c.subgoal.name, c.subgoal.target) for c in changed] == [
            ("explore", room)
        ]
        assert changed[0].utility == 0.12  # visited rooms rank lower

    def test_object_location_delta_rebuilds_only_that_fetch(self, fast_env):
        env = fast_env
        beliefs = self._beliefs(env)
        first = env.candidates("agent_0", beliefs)
        cache = env._candidate_cache
        rebuilt_before = cache.rebuilt_slots

        newly_seen = list(env.goals)[2]
        beliefs.update(
            [Fact(subject=newly_seen, relation="located_in", value="kitchen", step=2)]
        )
        second = env.candidates("agent_0", beliefs)
        assert cache.rebuilt_slots == rebuilt_before + 1
        fetches = [c.subgoal.target for c in second if c.subgoal.name == "fetch"]
        assert newly_seen in fetches
        assert len(fetches) == len(
            [c for c in first if c.subgoal.name == "fetch"]
        ) + 1

    def test_both_paths_enumerate_identically(self):
        """Cached assembly equals building every slot afresh, before and
        after a belief delta."""
        for seed in (0, 7):
            env = _household(seed)
            beliefs = self._beliefs(env)
            for _ in range(2):
                cached = env.candidates("agent_0", beliefs)
                fresh = [
                    candidate
                    for slot in env.candidate_slots("agent_0", beliefs)
                    for candidate in slot.build()
                ]
                assert list(cached) == fresh
                beliefs.update(
                    [Fact(list(env.goals)[2], "located_in", "kitchen", step=2)]
                )
