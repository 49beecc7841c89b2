"""Prompts as token arithmetic.

A :class:`Prompt` is an ordered tuple of named sections: system preamble,
task, current observation, retrieved memory, action history, dialogue
history and the enumerated action candidates.  The simulated LLM, the
latency model and the paper's Fig. 6 prompt-growth analysis read only
token counts, so a section is its name, an immutable snapshot of its
source and a token count; no text is joined while an episode runs.
:meth:`Prompt.render` renders the text on demand, for debugging, and the
tests use it as the oracle for the arithmetic: every section's count
equals ``count_tokens`` of its rendered text.

The counts rely on the tokenizer being additive over space-joined pieces
(:mod:`repro.llm.tokenizer`), with per-piece counts memoized once on the
frozen value types (``tokens`` in :mod:`repro.core.types`):

- observation: ``"{agent} is at {position}."`` plus each fact and its
  period (``Observation.tokens``);
- memory and action history: each item plus one token for its
  terminating period;
- dialogue: each of the last :data:`MAX_DIALOGUE_MESSAGES` messages;
- candidates: each ``"(i) "`` prefix (two parentheses plus one token per
  digit) plus its subgoal;
- fixed text: ``count_tokens(text)``, counted once per ``(name, text)``:
  :func:`text_section` hands back one interned section for each.

Sections and prompts are immutable and nothing here takes a lock: the
only shared state is ``functools.lru_cache`` plus idempotent
per-instance memo writes of pure values, so a thread that races another
to a first read stores the same count.  The simulator itself drives
episodes from one thread per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Any, Callable, NamedTuple, Sequence

from repro.core.types import Candidate, Fact, Message, Observation
from repro.llm.tokenizer import count_tokens

#: Most recent dialogue messages a prompt carries (context-limit
#: truncation, as the benchmarked systems do).
MAX_DIALOGUE_MESSAGES = 40

_TOKENS = attrgetter("tokens")
_SUBGOAL_TOKENS = attrgetter("subgoal.tokens")


class PromptSection(NamedTuple):
    """One named block of a prompt.

    ``source`` is an immutable snapshot of what the section shows and
    ``renderer`` turns it into text; ``tokens`` equals
    ``count_tokens(text)``.
    """

    name: str
    tokens: int
    source: Any
    renderer: Callable[[Any], str]

    @property
    def text(self) -> str:
        """The section's text, rendered on demand."""
        return self.renderer(self.source)


@lru_cache(maxsize=4096)
def text_section(name: str, text: str) -> PromptSection:
    """A section of fixed text: one interned section per ``(name, text)``.

    System preambles, task descriptions, instructions and agent headers
    recur on every prompt that carries them, so each is counted once.
    """
    return PromptSection(name, count_tokens(text), text, str)


@dataclass(frozen=True)
class Prompt:
    """An immutable, ordered tuple of sections and their token total."""

    sections: tuple[PromptSection, ...] = ()
    tokens: int = field(init=False)

    def __post_init__(self) -> None:
        sections = tuple(self.sections)
        object.__setattr__(self, "sections", sections)
        object.__setattr__(self, "tokens", sum(map(_TOKENS, sections)))

    def render(self) -> str:
        return "\n\n".join(
            f"[{section.name}]\n{section.text}" for section in self.sections
        )


def _render_dotted(items: tuple) -> str:
    return " ".join(item.describe() + "." for item in items)


def _render_dialogue(messages: tuple[Message, ...]) -> str:
    return " ".join(message.describe() for message in messages)


def _render_candidates(candidates: tuple[Candidate, ...]) -> str:
    return " ".join(
        f"({index}) {candidate.subgoal.describe()}"
        for index, candidate in enumerate(candidates)
    )


@lru_cache(maxsize=1024)
def _index_tokens(n: int) -> int:
    """Tokens of the ``"(0) "`` … ``"(n-1) "`` candidate prefixes."""
    return sum(2 + len(str(index)) for index in range(n))


class PromptBuilder:
    """Fluent builder producing :class:`Prompt` objects from sim objects.

    The builder mirrors how the benchmarked systems assemble prompts:
    a fixed system preamble, the task, the current observation, retrieved
    memory rendered as natural-language facts, the (growing) dialogue
    history, and finally the enumerated action candidates — the paper's
    "formalizing the action list" (Sec. II-A).  Every section snapshots
    its input, so a caller appending to its own list afterwards (a
    message delivered after planning) changes neither count nor render.
    """

    def __init__(self, system_text: str = "", task_text: str = "") -> None:
        self._sections: list[PromptSection] = []
        self.extra("system", system_text)
        self.extra("task", task_text)

    def _add(
        self, name: str, tokens: int, source: Any, renderer: Callable[[Any], str]
    ) -> "PromptBuilder":
        self._sections.append(PromptSection(name, tokens, source, renderer))
        return self

    def observation(self, observation: Observation) -> "PromptBuilder":
        return self._add("observation", observation.tokens, observation, Observation.describe)

    def memory(self, facts: Sequence[Fact]) -> "PromptBuilder":
        return self.described_list("memory", facts)

    def described_list(self, name: str, items: Sequence) -> "PromptBuilder":
        """Add a section rendering ``item.describe() + "."`` per item.

        The shape shared by memory facts and action histories; each item
        counts its memoized ``tokens`` plus one token for its period.
        """
        if not items:
            return self
        items = tuple(items)
        return self._add(name, sum(map(_TOKENS, items)) + len(items), items, _render_dotted)

    def dialogue(self, messages: Sequence[Message]) -> "PromptBuilder":
        """Append dialogue history, truncated to the most recent window.

        Real systems cannot concatenate unbounded dialogue — they truncate
        at the context limit.  The cap keeps the paper's token-growth
        dynamics (Fig. 6) while bounding prompt size for large teams.
        """
        if not messages:
            return self
        window = tuple(messages[-MAX_DIALOGUE_MESSAGES:])
        return self._add("dialogue", sum(map(_TOKENS, window)), window, _render_dialogue)

    def candidates(self, candidates: Sequence[Candidate]) -> "PromptBuilder":
        if not candidates:
            return self
        candidates = tuple(candidates)
        tokens = _index_tokens(len(candidates)) + sum(map(_SUBGOAL_TOKENS, candidates))
        return self._add("candidates", tokens, candidates, _render_candidates)

    def extra(self, name: str, text: str) -> "PromptBuilder":
        """Add a fixed-text section (empty text is skipped)."""
        if text:
            self._sections.append(text_section(name, text))
        return self

    def build(self) -> Prompt:
        return Prompt(tuple(self._sections))


#: Default system preambles, sized to match typical few-shot scaffolding.
PLANNER_SYSTEM_TEXT = (
    "You are the high level planner of an embodied agent. Decompose the "
    "long horizon task into sub objectives, reason about the current world "
    "state, and choose exactly one of the enumerated candidate actions. "
    "Respond with the candidate index only. Prior demonstrations follow."
)

COMMUNICATOR_SYSTEM_TEXT = (
    "You are the communication module of an embodied agent. Read the "
    "current plan and world knowledge and compose a concise message to "
    "your teammates sharing only information useful for coordination."
)

REFLECTOR_SYSTEM_TEXT = (
    "You are the reflection module of an embodied agent. Compare the state "
    "before and after the last executed action and judge whether the plan "
    "step succeeded, failed, or had no effect. Respond with the verdict."
)
