"""Tests for structured prompt assembly and its token arithmetic."""

import string
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modules.memory import ActionRecord
from repro.core.types import Candidate, Fact, Message, Observation, Subgoal
from repro.llm.prompt import MAX_DIALOGUE_MESSAGES, Prompt, PromptBuilder, text_section
from repro.llm.tokenizer import count_tokens


class TestPrompt:
    def test_empty_prompt(self):
        prompt = Prompt()
        assert prompt.tokens == 0
        assert prompt.render() == ""

    def test_add_skips_empty_text(self):
        prompt = PromptBuilder().extra("a", "").extra("b", "hello").build()
        assert [section.name for section in prompt.sections] == ["b"]

    def test_tokens_sum_sections(self):
        prompt = PromptBuilder().extra("a", "one two").extra("b", "three").build()
        assert prompt.tokens == sum(section.tokens for section in prompt.sections)

    def test_render_contains_headers(self):
        text = PromptBuilder().extra("system", "be good").build().render()
        assert "[system]" in text and "be good" in text

    def test_add_after_tokens_read_never_stale(self):
        """Reading ``tokens`` then adding a section counts the addition."""
        draft = PromptBuilder().extra("a", "one two")
        prompt = draft.build()
        assert prompt.tokens == 2
        prompt = draft.extra("b", "three").build()
        assert prompt.tokens == 3
        prompt = draft.extra("c", "four five").build()
        assert prompt.tokens == 5
        assert [section.tokens for section in prompt.sections] == [2, 1, 2]

    def test_sections_cannot_drift_from_tokens(self):
        """Sections are frozen with their total: replacing one is refused."""
        prompt = PromptBuilder().extra("a", "one two").extra("b", "three").build()
        with pytest.raises(TypeError):
            prompt.sections[0] = prompt.sections[1]
        assert prompt.tokens == 3
        assert prompt.tokens == sum(section.tokens for section in prompt.sections)


class TestPromptSection:
    def test_tokens_computed_at_construction(self):
        section = text_section("memory", "the red mug")
        assert section.tokens == count_tokens("the red mug")
        assert section.text == "the red mug"

    def test_fixed_text_sections_are_interned(self):
        section = text_section("system", "be a planner")
        assert text_section("system", "be a planner") is section
        assert text_section("task", "be a planner") is not section
        assert PromptBuilder(system_text="be a planner").build().sections == (section,)


class TestPromptBuilder:
    def test_full_pipeline(self):
        observation = Observation(
            agent="a0",
            step=1,
            position="kitchen",
            facts=(Fact("mug", "located_in", "kitchen"),),
        )
        message = Message(
            sender="a1", recipients=("a0",), step=1, facts=(Fact("cup", "located_in", "hall"),)
        )
        candidates = [Candidate(subgoal=Subgoal("fetch", target="mug"), utility=1.0)]
        prompt = (
            PromptBuilder(system_text="sys", task_text="task")
            .observation(observation)
            .memory([Fact("book", "located_in", "study")])
            .dialogue([message])
            .candidates(candidates)
            .build()
        )
        names = [section.name for section in prompt.sections]
        assert names == ["system", "task", "observation", "memory", "dialogue", "candidates"]

    def test_empty_inputs_skip_sections(self):
        prompt = (
            PromptBuilder()
            .memory([])
            .dialogue([])
            .candidates([])
            .build()
        )
        assert prompt.sections == ()

    def test_candidates_enumerated(self):
        candidates = [
            Candidate(subgoal=Subgoal("fetch", target="mug"), utility=1.0),
            Candidate(subgoal=Subgoal("explore", target="hall"), utility=0.4),
        ]
        prompt = PromptBuilder().candidates(candidates).build()
        text = prompt.render()
        assert "(0)" in text and "(1)" in text

    def test_dialogue_grows_tokens(self):
        messages = [
            Message(
                sender="a1",
                recipients=(),
                step=i,
                facts=(Fact(f"item_{i}", "located_in", "hall"),),
                intent=Subgoal("fetch", target=f"item_{i}"),
            )
            for i in range(5)
        ]
        short = PromptBuilder().dialogue(messages[:1]).build().tokens
        long = PromptBuilder().dialogue(messages).build().tokens
        assert long > short

    def test_dialogue_keeps_the_most_recent_window(self):
        messages = [
            Message(sender="a1", recipients=(), step=i, intent=Subgoal("fetch", target=f"box_{i}"))
            for i in range(60)
        ]
        (section,) = PromptBuilder().dialogue(messages).build().sections
        assert section.source == tuple(messages[-MAX_DIALOGUE_MESSAGES:])
        assert section.tokens == count_tokens(section.text)

    def test_sections_snapshot_their_inputs(self):
        """A caller appending to its list after building moves nothing:
        messages delivered after planning do not reach its prompt."""
        facts = [Fact("mug", "located_in", "kitchen")]
        dialogue = [Message(sender="a1", recipients=("a0",), step=1, facts=tuple(facts))]
        prompt = PromptBuilder().memory(facts).dialogue(dialogue).build()
        rendered, tokens = prompt.render(), prompt.tokens
        facts.append(Fact("book", "located_in", "study"))
        dialogue.append(Message(sender="a2", recipients=("a0",), step=1, intent=Subgoal("explore")))
        assert prompt.render() == rendered
        assert prompt.tokens == tokens
        assert [len(section.source) for section in prompt.sections] == [1, 1]


# --------------------------------------------------------------------- #
# The arithmetic against the rendered text
# --------------------------------------------------------------------- #

#: Field text with the characters the tokenizer treats differently:
#: letters (long runs split), digits, punctuation, underscores, spaces.
WORDS = st.text(alphabet=string.ascii_letters + string.digits + "_.,:'()- ", max_size=14)
FACTS = st.builds(Fact, WORDS, WORDS, WORDS, st.integers(min_value=0, max_value=300))
SUBGOALS = st.builds(Subgoal, WORDS, WORDS, WORDS)
MESSAGES = st.builds(
    Message,
    sender=WORDS,
    recipients=st.just(()),
    step=st.integers(min_value=0, max_value=300),
    facts=st.lists(FACTS, max_size=4).map(tuple),
    intent=st.none() | SUBGOALS,
)
RECORDS = st.builds(
    ActionRecord, st.integers(min_value=0, max_value=300), SUBGOALS, st.booleans()
)
OBSERVATIONS = st.builds(
    Observation,
    agent=WORDS,
    step=st.integers(min_value=0, max_value=300),
    position=WORDS,
    facts=st.lists(FACTS, max_size=6).map(tuple),
)
CANDIDATES = st.lists(
    st.builds(Candidate, subgoal=SUBGOALS, utility=st.floats(min_value=0.0, max_value=1.0)),
    max_size=14,
)


def _uncached_count(text: str) -> int:
    return count_tokens.__wrapped__(text)


@settings(max_examples=120, deadline=None)
@given(
    observation=OBSERVATIONS,
    memory=st.lists(FACTS, max_size=8),
    history=st.lists(RECORDS, max_size=6),
    dialogue=st.lists(MESSAGES, max_size=MAX_DIALOGUE_MESSAGES + 6),
    candidates=CANDIDATES,
    instruction=WORDS,
)
def test_every_section_counts_its_rendered_text(
    observation, memory, history, dialogue, candidates, instruction
):
    def build(sequence) -> Prompt:
        return (
            PromptBuilder(system_text="be a planner", task_text="tidy the house")
            .observation(observation)
            .memory(sequence(memory))
            .described_list("action_history", sequence(history))
            .dialogue(sequence(dialogue))
            .candidates(sequence(candidates))
            .extra("instruction", instruction)
            .build()
        )

    listed = build(list)
    for section in listed.sections:
        assert section.tokens == _uncached_count(section.text), section.name
    assert listed.tokens == sum(section.tokens for section in listed.sections)
    tupled = build(tuple)
    assert [(s.name, s.tokens) for s in tupled.sections] == [
        (s.name, s.tokens) for s in listed.sections
    ]
    assert tupled.render() == listed.render()
    assert tupled.tokens == listed.tokens


def test_threads_sharing_objects_count_alike():
    """Concurrent first reads of the shared ``memoized`` ``tokens`` count
    what one thread counts.  The memo takes no lock: a racing first read
    may compute a count twice but stores the same value.  The simulator
    drives episodes from one thread per process; this pins the lock-free
    contract for callers that share prompt inputs across threads."""
    facts = [Fact(f"obj_{i}", "located_in", f"room_{i % 7}", step=i) for i in range(120)]
    messages = [
        Message(sender=f"a{i % 5}", recipients=(), step=i, facts=tuple(facts[i : i + 3]))
        for i in range(100)
    ]
    barrier = threading.Barrier(8)
    prompts: list[Prompt] = []

    def work() -> None:
        barrier.wait(timeout=10)
        for start in range(0, 100, 10):
            prompt = (
                PromptBuilder()
                .memory(facts[start : start + 20])
                .dialogue(messages[: start + 10])
                .build()
            )
            prompts.append(prompt)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(prompts) == 80
    for prompt in prompts:
        for section in prompt.sections:
            assert section.tokens == _uncached_count(section.text)
