"""Tests for core value types."""

import pytest

from repro.core.types import (
    Candidate,
    DIFFICULTIES,
    Fact,
    Message,
    Observation,
    Subgoal,
    validate_difficulty,
)


class TestFact:
    def test_describe_renders_english(self):
        text = Fact("mug_3", "located_in", "kitchen").describe()
        assert text == "mug_3 located in kitchen"

    def test_key_ignores_value_and_step(self):
        a = Fact("mug", "located_in", "kitchen", step=1)
        b = Fact("mug", "located_in", "bedroom", step=9)
        assert a.key() == b.key()

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Fact("a", "b", "c").value = "d"  # type: ignore[misc]


class TestActionAndSubgoal:
    def test_subgoal_describe_without_destination(self):
        assert Subgoal(name="fetch", target="mug").describe() == "fetch mug"

    def test_subgoal_hashable(self):
        assert len({Subgoal("a"), Subgoal("a"), Subgoal("b")}) == 2


class TestCandidate:
    def test_defaults(self):
        candidate = Candidate(subgoal=Subgoal("explore"), utility=0.5)
        assert candidate.feasible is True
        assert candidate.fault is None


class TestObservation:
    def test_describe_includes_facts(self):
        obs = Observation(
            agent="a0",
            step=3,
            position="kitchen",
            facts=(Fact("mug", "located_in", "kitchen"),),
        )
        text = obs.describe()
        assert "a0 is at kitchen." in text
        assert "mug located in kitchen." in text


class TestMessage:
    def test_describe_includes_intent_and_facts(self):
        message = Message(
            sender="a0",
            recipients=("a1",),
            step=2,
            facts=(Fact("box", "located_in", "hall"),),
            intent=Subgoal(name="pickup", target="box"),
        )
        text = message.describe()
        assert "a0 says:" in text
        assert "I will pickup box." in text
        assert "box located in hall." in text


class TestDifficulty:
    def test_accepts_known(self):
        for difficulty in DIFFICULTIES:
            assert validate_difficulty(difficulty) == difficulty

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            validate_difficulty("nightmare")
