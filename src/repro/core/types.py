"""Core value types shared by environments, modules, and paradigms.

The vocabulary follows the paper's Sec. II: environments expose
*observations* made of symbolic *facts*; planning produces high-level
*subgoals*; execution lowers subgoals into primitive *actions*;
communication exchanges *messages*.  Everything is a small, explicit
dataclass so that prompt accounting, memory storage, and metrics can treat
them uniformly.

The types a prompt carries (``Fact``, ``Subgoal``, ``Observation``,
``Message`` and the memory module's ``ActionRecord``) expose ``tokens``:
the token count of their ``describe()`` rendering, computed once per
instance and summed by :mod:`repro.llm.prompt` without joining any text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Any, Callable

from repro.core.errors import FaultKind


class memoized:
    """A read-only attribute computed once per (frozen) instance.

    A non-data descriptor: the first read stores the value in the
    instance ``__dict__``, which then shadows the descriptor, so later
    reads are plain attribute reads.  The value must be a pure function
    of the instance's fields; concurrent first reads then write the same
    value, so no lock is needed (``functools.cached_property`` takes one
    on every first read before Python 3.12).  Dataclass fields, equality
    and hashing ignore it.
    """

    def __init__(self, func: Callable[[Any], Any]) -> None:
        self._func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, instance: object, owner: type | None = None) -> Any:
        if instance is None:
            return self
        value = instance.__dict__[self._name] = self._func(instance)
        return value


_TOKENS = attrgetter("tokens")

#: ``repro.llm.tokenizer.count_tokens``, bound on first use: the
#: ``repro.llm`` package imports this module, so a top-level import would
#: close an import cycle.
_count_tokens: Callable[[str], int] | None = None


def _tokens_in(text: str) -> int:
    global _count_tokens
    if _count_tokens is None:
        from repro.llm.tokenizer import count_tokens

        _count_tokens = count_tokens
    return _count_tokens(text)


#: Environments mint *fresh* ``Fact`` instances every step for recurring
#: world state, and fresh ``Subgoal`` instances every episode for
#: candidate actions, so per-instance caches miss; these value-keyed
#: caches share one rendering per distinct value instead.  Sizes cover
#: the vocabulary of every shipped environment many times over while
#: bounding long multi-episode worker processes.
@lru_cache(maxsize=65536)
def _render_fact(subject: str, relation: str, value: str) -> str:
    return f"{subject} {relation.replace('_', ' ')} {value}"


@lru_cache(maxsize=65536)
def _render_subgoal(name: str, target: str, destination: str) -> str:
    parts = [name.replace("_", " ")]
    if target:
        parts.append(target)
    if destination:
        parts.append(f"at {destination}")
    return " ".join(parts)


@dataclass(frozen=True)
class Fact:
    """A symbolic triple describing one aspect of the world.

    Examples: ``Fact("mug_3", "located_at", "kitchen_table")``,
    ``Fact("agent_0", "holding", "mug_3")``.  ``step`` records the macro
    step at which the fact was learned, which memory modules use for
    recency-window retention and staleness detection.
    """

    subject: str
    relation: str
    value: str
    step: int = 0

    def describe(self) -> str:
        """Render the fact as an English clause for prompt construction."""
        return _render_fact(self.subject, self.relation, self.value)

    @memoized
    def tokens(self) -> int:
        """Token count of :meth:`describe`."""
        return _tokens_in(self.describe())

    def key(self) -> tuple[str, str]:
        """Identity of the *slot* this fact fills (subject, relation).

        Two facts with the same key but different values contradict each
        other; memory keeps the most recent one.
        """
        return (self.subject, self.relation)


@dataclass(frozen=True)
class Subgoal:
    """A high-level plan step produced by the planning module.

    ``name`` is the operator (e.g. ``"fetch"``, ``"craft"``, ``"cook"``),
    ``target`` the object/recipe it applies to, and ``destination`` an
    optional location/container.
    """

    name: str
    target: str = ""
    destination: str = ""

    def describe(self) -> str:
        return _render_subgoal(self.name, self.target, self.destination)

    @memoized
    def tokens(self) -> int:
        """Token count of :meth:`describe`."""
        return _tokens_in(self.describe())


@dataclass(frozen=True)
class Candidate:
    """A subgoal option offered to the simulated LLM for selection.

    ``utility`` is the ground-truth progress value of the option (used by
    the behaviour kernel to rank choices; the agent never sees it).
    ``feasible`` marks whether preconditions currently hold.  ``fault``
    tags candidates that exist only as error-injection targets, e.g. a
    hallucinated object.
    """

    subgoal: Subgoal
    utility: float
    feasible: bool = True
    fault: FaultKind | None = None


@dataclass(frozen=True)
class Observation:
    """An agent's partial view of the environment at one macro step."""

    agent: str
    step: int
    position: str
    facts: tuple[Fact, ...]

    def describe(self) -> str:
        lines = [f"{self.agent} is at {self.position}."]
        lines.extend(fact.describe() + "." for fact in self.facts)
        return " ".join(lines)

    @memoized
    def tokens(self) -> int:
        """Token count of :meth:`describe`, summed clause by clause."""
        head = _tokens_in(f"{self.agent} is at {self.position}.")
        return head + sum(map(_TOKENS, self.facts)) + len(self.facts)


@dataclass(frozen=True)
class Message:
    """An inter-agent message in a multi-agent system.

    ``facts`` is the sharable knowledge payload; ``intent`` the sender's
    declared next subgoal.
    """

    sender: str
    recipients: tuple[str, ...]
    step: int
    facts: tuple[Fact, ...] = ()
    intent: Subgoal | None = None

    def describe(self) -> str:
        parts = [f"{self.sender} says:"]
        if self.intent is not None:
            parts.append(f"I will {self.intent.describe()}.")
        parts.extend(fact.describe() + "." for fact in self.facts)
        return " ".join(parts)

    @memoized
    def tokens(self) -> int:
        """Token count of :meth:`describe`, summed clause by clause."""
        total = _tokens_in(f"{self.sender} says:")
        if self.intent is not None:
            total += _tokens_in(f"I will {self.intent.describe()}.")
        return total + sum(map(_TOKENS, self.facts)) + len(self.facts)


@dataclass(frozen=True)
class Decision:
    """The outcome of one simulated-LLM decision call (its latency and
    retry rounds are on the :class:`~repro.llm.requests.InferenceResult`
    that carries it)."""

    subgoal: Subgoal
    fault: FaultKind | None
    prompt_tokens: int
    output_tokens: int


@dataclass
class StepRecord:
    """Metrics captured for one macro step of one agent."""

    step: int
    agent: str
    subgoal: Subgoal
    fault: FaultKind | None = None
    reflected: bool = False
    replanned: bool = False
    primitive_count: int = 0
    execution_success: bool = True
    prompt_tokens: int = 0
    output_tokens: int = 0
    messages_sent: int = 0
    messages_useful: int = 0


@dataclass(frozen=True)
class TaskSpec:
    """A concrete task instance handed to an environment factory.

    ``difficulty`` is one of ``"easy" | "medium" | "hard"`` and controls
    the number of objectives / dependency depth.  ``horizon`` is the macro
    step limit (the paper's L_max).
    """

    env_name: str
    difficulty: str = "medium"
    n_agents: int = 1
    horizon: int = 120
    seed: int = 0
    params: dict[str, Any] = field(default_factory=dict)


DIFFICULTIES: tuple[str, ...] = ("easy", "medium", "hard")


def validate_difficulty(difficulty: str) -> str:
    if difficulty not in DIFFICULTIES:
        raise ValueError(
            f"difficulty must be one of {DIFFICULTIES}, got {difficulty!r}"
        )
    return difficulty
