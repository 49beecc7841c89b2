"""Core value types shared by environments, modules, and paradigms.

The vocabulary follows the paper's Sec. II: environments expose
*observations* made of symbolic *facts*; planning produces high-level
*subgoals*; execution lowers subgoals into primitive *actions*;
communication exchanges *messages*.  Everything is a small, explicit
dataclass so that prompt rendering, memory storage, and metrics can treat
them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

from repro.core.errors import FaultKind


def _memo_describe(obj: object, text: str) -> str:
    """Cache a ``describe()`` rendering on a frozen instance.

    The value types below are frozen dataclasses whose rendering is a pure
    function of their fields, so the string can be stored once and reused
    every step the object is re-rendered into a prompt (memory windows and
    action histories re-render the same instances for many steps).  The
    cache lives outside the dataclass fields — equality, hashing, and
    pickled round-trips are unaffected.
    """
    object.__setattr__(obj, "_described", text)
    return text


#: Environments mint *fresh* ``Fact``/``Subgoal`` instances every step for
#: recurring world state and candidate actions, so per-instance caches
#: miss; these value-keyed caches share one rendering per distinct value
#: instead.  Sizes cover the vocabulary of every shipped environment many
#: times over while bounding long multi-episode worker processes.
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
        cached = self.__dict__.get("_described")
        if cached is not None:
            return cached
        return _memo_describe(
            self, _render_fact(self.subject, self.relation, self.value)
        )

    def key(self) -> tuple[str, str]:
        """Identity of the *slot* this fact fills (subject, relation).

        Two facts with the same key but different values contradict each
        other; memory keeps the most recent one.
        """
        return (self.subject, self.relation)


@dataclass(frozen=True)
class Action:
    """A primitive action executable by the environment in one micro-step."""

    verb: str
    agent: str
    target: str = ""
    destination: str = ""

    def describe(self) -> str:
        parts = [self.verb]
        if self.target:
            parts.append(self.target)
        if self.destination:
            parts.append(f"to {self.destination}")
        return " ".join(parts)


@dataclass(frozen=True)
class ActionResult:
    """Outcome of applying one primitive action."""

    action: Action
    success: bool
    duration: float
    reason: str = ""


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
        cached = self.__dict__.get("_described")
        if cached is not None:
            return cached
        return _memo_describe(
            self, _render_subgoal(self.name, self.target, self.destination)
        )


#: Sentinel subgoal meaning "nothing useful to do this step".
IDLE = Subgoal(name="idle")


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
    visible_agents: tuple[str, ...] = ()

    def describe(self) -> str:
        cached = self.__dict__.get("_described")
        if cached is not None:
            return cached
        lines = [f"{self.agent} is at {self.position}."]
        lines.extend(fact.describe() + "." for fact in self.facts)
        return _memo_describe(self, " ".join(lines))


@dataclass(frozen=True)
class Message:
    """An inter-agent message in a multi-agent system.

    ``facts`` is the sharable knowledge payload; ``intent`` the sender's
    declared next subgoal.  ``novel_facts`` is filled in on delivery with
    the number of payload facts the receiver did not already know — the
    paper's measure of message usefulness (Sec. V-D: only ~20 % of CoELA's
    messages contribute).
    """

    sender: str
    recipients: tuple[str, ...]
    step: int
    facts: tuple[Fact, ...] = ()
    intent: Subgoal | None = None
    text: str = ""
    novel_facts: int = 0

    def describe(self) -> str:
        if self.text:
            return self.text
        cached = self.__dict__.get("_described")
        if cached is not None:
            return cached
        parts = [f"{self.sender} says:"]
        if self.intent is not None:
            parts.append(f"I will {self.intent.describe()}.")
        parts.extend(fact.describe() + "." for fact in self.facts)
        return _memo_describe(self, " ".join(parts))


@dataclass(frozen=True)
class Decision:
    """The outcome of one simulated-LLM decision call."""

    subgoal: Subgoal
    fault: FaultKind | None
    prompt_tokens: int
    output_tokens: int
    latency: float
    retries: int = 0

    @property
    def is_faulty(self) -> bool:
        return self.fault is not None


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
