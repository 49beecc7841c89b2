"""Tests for the belief store (slot semantics, staleness, novelty)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.beliefs import Beliefs
from repro.core.types import Fact


def fact(subject="mug", relation="located_in", value="kitchen", step=0):
    return Fact(subject=subject, relation=relation, value=value, step=step)


class TestUpdate:
    def test_new_fact_is_novel(self):
        beliefs = Beliefs()
        assert beliefs.update([fact()]) == 1
        assert beliefs.value("mug", "located_in") == "kitchen"

    def test_same_value_not_novel(self):
        beliefs = Beliefs.from_facts([fact(step=1)])
        assert beliefs.update([fact(step=2)]) == 0

    def test_newer_different_value_is_novel_and_wins(self):
        beliefs = Beliefs.from_facts([fact(step=1)])
        assert beliefs.update([fact(value="bedroom", step=2)]) == 1
        assert beliefs.value("mug", "located_in") == "bedroom"

    def test_older_fact_never_overwrites(self):
        beliefs = Beliefs.from_facts([fact(value="bedroom", step=5)])
        novel = beliefs.update([fact(value="kitchen", step=2)])
        assert novel == 0
        assert beliefs.value("mug", "located_in") == "bedroom"

    def test_equal_step_overwrite_allowed(self):
        beliefs = Beliefs.from_facts([fact(value="kitchen", step=3)])
        beliefs.update([fact(value="bedroom", step=3)])
        assert beliefs.value("mug", "located_in") == "bedroom"

    def test_different_slots_coexist(self):
        beliefs = Beliefs()
        beliefs.update([fact(), fact(relation="held_by", value="agent_0")])
        assert len(beliefs) == 2


class TestAccessors:
    def test_value_missing_is_none(self):
        assert Beliefs().value("ghost", "located_in") is None

    def test_forget(self):
        beliefs = Beliefs.from_facts([fact()])
        assert beliefs.forget("mug", "located_in") is True
        assert beliefs.value("mug", "located_in") is None
        assert beliefs.forget("mug", "located_in") is False

    def test_membership_test_raises(self):
        """A slot-key membership test cannot silently read False."""
        beliefs = Beliefs.from_facts([fact()])
        with pytest.raises(TypeError):
            ("mug", "located_in") in beliefs
        assert list(beliefs) == [fact()]

    def test_copy_is_independent(self):
        beliefs = Beliefs.from_facts([fact()])
        clone = beliefs.copy()
        clone.forget("mug", "located_in")
        assert beliefs.value("mug", "located_in") == "kitchen"

    def test_iteration_yields_facts(self):
        beliefs = Beliefs.from_facts([fact(), fact(subject="book")])
        assert {f.subject for f in beliefs} == {"mug", "book"}


fact_strategy = st.builds(
    Fact,
    subject=st.sampled_from(["a", "b", "c"]),
    relation=st.sampled_from(["at", "held"]),
    value=st.sampled_from(["x", "y", "z"]),
    step=st.integers(min_value=0, max_value=20),
)


class TestProperties:
    @given(facts=st.lists(fact_strategy, max_size=40))
    def test_resolved_value_has_max_step_for_slot(self, facts):
        beliefs = Beliefs()
        beliefs.update(facts)
        for stored in beliefs:
            same_slot = [f for f in facts if f.key() == stored.key()]
            max_step = max(f.step for f in same_slot)
            assert stored.step == max_step

    @given(facts=st.lists(fact_strategy, max_size=40))
    def test_slot_count_bounded_by_distinct_keys(self, facts):
        beliefs = Beliefs()
        beliefs.update(facts)
        assert len(beliefs) == len({f.key() for f in facts})

    @given(facts=st.lists(fact_strategy, max_size=30))
    def test_update_idempotent(self, facts):
        beliefs = Beliefs()
        beliefs.update(facts)
        snapshot = {f.key(): f.value for f in beliefs}
        beliefs.update(facts)
        assert {f.key(): f.value for f in beliefs} == snapshot
