"""Structured prompt assembly with per-section token accounting.

A :class:`Prompt` is an ordered list of named sections (system preamble,
task description, current observation, retrieved memory, dialogue history,
candidate actions).  Sections keep their own token counts so experiments
can report *where* prompt growth comes from — the paper's Fig. 6 attributes
growth to repeated memory retrieval and concatenated multi-agent dialogue.

Incremental accounting: a section's token count is computed once at
construction and a prompt's total is maintained incrementally on ``add``,
so reading ``Prompt.tokens`` on every simulated LLM call never
re-tokenizes the (growing) prompt text.  The builder goes further: stable
sections (system preambles, task descriptions, fixed instructions) are
interned and reused across steps and episodes, and sections assembled
from many rendered pieces (memory facts, dialogue, candidates) are
counted *additively* from per-piece cached counts — valid because the
estimator never merges tokens across the space separator (see
:mod:`repro.llm.tokenizer`) — instead of re-tokenizing the joined text
each step.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from repro.core.types import Candidate, Fact, Message, Observation
from repro.envs.candidates import candidate_features
from repro.llm.tokenizer import count_tokens


@dataclass(frozen=True)
class PromptSection:
    """One named block of prompt text.

    ``tokens`` is part of the value and fixed at construction: pass a
    precomputed count when the caller already knows it (the incremental
    builder's additive accounting), or let ``__post_init__`` derive it
    from ``text``.  Either way the count equals ``count_tokens(text)``.
    """

    name: str
    text: str
    tokens: int = -1  # sentinel: derive from ``text``

    def __post_init__(self) -> None:
        if self.tokens < 0:
            object.__setattr__(self, "tokens", count_tokens(self.text))


@lru_cache(maxsize=1024)
def intern_section(name: str, text: str) -> PromptSection:
    """Shared :class:`PromptSection` for stable (name, text) pairs.

    System preambles, task descriptions, and fixed instructions recur on
    every step of every episode; interning renders and tokenizes each
    exactly once per process.  The cache is bounded (distinct stable
    sections number in the dozens; 1024 leaves room for many custom
    workloads) and its entries are immutable, so sharing is safe.
    """
    return PromptSection(name=name, text=text)


@dataclass
class Prompt:
    """An ordered collection of prompt sections.

    The token total is maintained incrementally by :meth:`add` /
    :meth:`append_section`, which are the mutation API.  Out-of-band
    *growth or shrinkage* of ``sections`` (direct append/remove) is
    additionally detected by a length check and triggers a full recount;
    an in-place same-length *replacement* bypasses the guard — replace
    sections by rebuilding the prompt, not by item assignment.
    """

    sections: list[PromptSection] = field(default_factory=list)
    _total: int = field(default=0, init=False, repr=False, compare=False)
    _counted: int = field(default=0, init=False, repr=False, compare=False)

    def add(self, name: str, text: str) -> "Prompt":
        """Append a section (empty text is skipped) and return self."""
        if text:
            self.append_section(PromptSection(name=name, text=text))
        return self

    def append_section(self, section: PromptSection) -> "Prompt":
        """Append a prebuilt section, keeping the running total current."""
        self._sync()
        self.sections.append(section)
        self._total += section.tokens
        self._counted += 1
        return self

    def _sync(self) -> None:
        """Recount if ``sections`` grew or shrank behind the cache's back."""
        if self._counted != len(self.sections):
            self._total = sum(section.tokens for section in self.sections)
            self._counted = len(self.sections)

    @property
    def tokens(self) -> int:
        self._sync()
        return self._total

    def tokens_by_section(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for section in self.sections:
            totals[section.name] = totals.get(section.name, 0) + section.tokens
        return totals

    def render(self) -> str:
        return "\n\n".join(
            f"[{section.name}]\n{section.text}" for section in self.sections
        )


#: Most recent dialogue messages rendered into a prompt (context-limit
#: truncation, as the benchmarked systems do).
MAX_DIALOGUE_MESSAGES = 40

#: Candidate-line scaffolding, grown on demand: ``"(i) "`` prefixes, their
#: token costs — "(" and ")" are one token each plus one per index digit —
#: and the running cumulative cost (``cumulative[n]`` is the total index
#: overhead of enumerating ``n`` candidates), so enumeration never
#: re-formats, re-counts, or even re-sums per step.
#: Published as ONE tuple global so growth is a single atomic store: the
#: suite's ``--concurrent-sections`` mode runs episodes on threads of one
#: process, and a reader must always see a matched, fully built triple.
_INDEX_SCAFFOLD: tuple[list[str], list[int], list[int]] = ([], [], [0])
_INDEX_LOCK = threading.Lock()


def _index_scaffold(upto: int) -> tuple[list[str], list[int], list[int]]:
    """Prefix/token/cumulative tables covering ``upto`` candidate indices."""
    global _INDEX_SCAFFOLD
    prefixes, tokens, cumulative = _INDEX_SCAFFOLD
    if upto <= len(prefixes):
        return prefixes, tokens, cumulative
    with _INDEX_LOCK:
        prefixes, tokens, cumulative = _INDEX_SCAFFOLD
        if upto > len(prefixes):
            prefixes = prefixes + [
                f"({index}) " for index in range(len(prefixes), upto)
            ]
            tokens = tokens + [
                2 + len(str(index)) for index in range(len(tokens), upto)
            ]
            cumulative = list(cumulative)
            for cost in tokens[len(cumulative) - 1 :]:
                cumulative.append(cumulative[-1] + cost)
            _INDEX_SCAFFOLD = (prefixes, tokens, cumulative)
        return prefixes, tokens, cumulative


class _IdentitySectionMemo:
    """Bounded identity-keyed memo: candidate tuple -> rendered section.

    The environment candidate cache returns the *same tuple object* while
    an agent's affordances are unchanged (:mod:`repro.envs.candidates`),
    so the candidates section — the per-step render and token count of
    every enumerated subgoal — can be reused by object identity: no
    hashing of candidate values, just an id lookup plus an ``is`` check.
    Entries pin their key tuple (ids cannot be recycled while cached) and
    sections are immutable, so sharing across prompts is safe.  A lock
    guards the map for the suite's threaded ``--concurrent-sections``
    mode, mirroring ``_INDEX_SCAFFOLD``.
    """

    def __init__(self, capacity: int = 256) -> None:
        self._entries: OrderedDict[int, tuple[object, PromptSection]] = OrderedDict()
        self._capacity = capacity
        self._lock = threading.Lock()

    def get(self, key_obj: object) -> PromptSection | None:
        with self._lock:
            entry = self._entries.get(id(key_obj))
            if entry is None or entry[0] is not key_obj:
                return None
            self._entries.move_to_end(id(key_obj))
            return entry[1]

    def put(self, key_obj: object, section: PromptSection) -> None:
        with self._lock:
            self._entries[id(key_obj)] = (key_obj, section)
            if len(self._entries) > self._capacity:
                self._entries.popitem(last=False)


_CANDIDATE_SECTIONS = _IdentitySectionMemo()

#: Rendered memory sections keyed by payload-tuple identity (the staged
#: per-step communication payloads re-enter every dialogue round).
_MEMORY_SECTIONS = _IdentitySectionMemo()


def _described_section(name: str, items) -> PromptSection:
    """Render a period-terminated ``describe()`` section.

    Each item carries a ``_pdot`` instance memo — its period-terminated
    rendering paired with the token count of the bare text — so the
    steady state is one dict read per item with no method calls or
    string concatenation.  The memo composes the ``_described`` /
    ``_ptokens`` memos (:func:`repro.core.types._memo_describe`,
    :func:`_piece_tokens`), which stay authoritative for callers that
    need the undotted form.  Token count is additive: each piece plus
    one token for its terminating period.
    """
    parts: list[str] = []
    append = parts.append
    setattr_ = object.__setattr__
    tokens = 0
    for item in items:
        memo = item.__dict__
        entry = memo.get("_pdot")
        if entry is None:
            part = memo.get("_described")
            if part is None:
                part = item.describe()
            count = memo.get("_ptokens")
            if count is None:
                count = count_tokens(part)
                setattr_(item, "_ptokens", count)
            entry = (part + ".", count)
            setattr_(item, "_pdot", entry)
        append(entry[0])
        tokens += entry[1]
    return PromptSection(name, " ".join(parts), tokens + len(parts))


def _piece_tokens(item: object, text: str) -> int:
    """Token count of one rendered piece, cached on the instance.

    Mirrors ``_memo_describe`` (:mod:`repro.core.types`): the value types
    are frozen dataclasses whose rendering — and therefore its token
    count — is a pure function of their fields, so the count can live on
    the instance and be reused every step the object re-enters a prompt
    (memory windows and dialogue histories re-render the same instances
    for many steps).
    """
    tokens = item.__dict__.get("_ptokens")
    if tokens is None:
        tokens = count_tokens(text)
        object.__setattr__(item, "_ptokens", tokens)
    return tokens


class _DialogueWindows:
    """Incremental per-conversation dialogue-window renderer.

    An agent's dialogue windows evolve by suffix: step ``t+1``'s window
    is step ``t``'s window minus a few truncated heads plus the step's
    new messages.  Windows of *different* agents interleave (each agent's
    log lacks its own broadcasts), so the cache keys on an explicit
    ``window_key`` — the rendering agent — handed down by the planning /
    communication modules.  Each key holds the conversation's last
    rendered window with its per-message parts and token counts; the next
    render locates the prior window's last message inside the new window,
    splices the overlapping parts and counts, and describes/counts only
    the genuinely new messages.  Entries pin their message objects, so
    while an entry lives its ids cannot be recycled — an id match
    therefore guarantees object identity, and parts/counts are pure
    functions of those objects (counts via :func:`_piece_tokens`, so
    splicing is byte-identical to recounting).  A stale entry (a new
    episode reusing agent names) simply fails the id comparisons and
    falls back to a full rebuild.

    The read path is lock-free: a plain dict ``get`` is atomic under the
    GIL, entries are immutable tuples, and a racing writer can only make
    a reader miss (rebuild the same pure value), never observe a torn
    entry — the suite's threaded ``--concurrent-sections`` mode relies on
    this.  Writers serialize on a lock and clear the map outright at
    capacity: keys number one per live conversation, so wholesale
    eviction is rare and cheap to re-warm.
    """

    def __init__(self, capacity: int = 512) -> None:
        self._entries: dict[
            str,
            tuple[
                tuple[int, ...],
                tuple[Message, ...],
                tuple[str, ...],
                tuple[int, ...],
                PromptSection,
                list[Message] | None,
                int,
            ],
        ] = {}
        self._capacity = capacity
        self._lock = threading.Lock()

    def section(
        self,
        window_key: str,
        recent: list[Message],
        source: list[Message] | None = None,
    ) -> PromptSection:
        entries = self._entries
        entry = entries.get(window_key)
        # Same-source fast path: within a step the planning and
        # communication modules hand the same (unmutated) window list;
        # the pinned source plus its length identify it in O(1) without
        # building the per-message id tuple (appends grow the length and
        # fall through to the id comparison below).
        if (
            entry is not None
            and source is not None
            and entry[5] is source
            and entry[6] == len(source)
        ):
            return entry[4]
        ids = tuple(map(id, recent))
        if entry is not None and entry[0] == ids:
            return entry[4]
        n = len(ids)
        parts: list[str | None] = [None] * n
        counts: list[int] = [0] * n
        if entry is not None:
            prior_ids = entry[0]
            prior_last = prior_ids[-1]
            # The prior window's newest message sits near the end of the
            # new window (only the step's additions follow it).
            for index in range(n - 1, -1, -1):
                if ids[index] == prior_last:
                    overlap = min(len(prior_ids), index + 1)
                    if prior_ids[-overlap:] == ids[index + 1 - overlap : index + 1]:
                        parts[index + 1 - overlap : index + 1] = entry[2][-overlap:]
                        counts[index + 1 - overlap : index + 1] = entry[3][-overlap:]
                    break
        for index in range(n):
            if parts[index] is None:
                message = recent[index]
                memo = message.__dict__
                part = memo.get("_described")
                if part is None:
                    part = message.describe()
                parts[index] = part
                count = memo.get("_ptokens")
                if count is None:
                    count = _piece_tokens(message, part)
                counts[index] = count
        section = PromptSection("dialogue", " ".join(parts), sum(counts))
        with self._lock:
            if len(entries) >= self._capacity:
                entries.clear()
            entries[window_key] = (
                ids,
                tuple(recent),
                tuple(parts),
                tuple(counts),
                section,
                source,
                len(source) if source is not None else -1,
            )
        return section


_DIALOGUE_SECTIONS = _DialogueWindows()

#: Dialogue windows shorter than this are cheaper to re-render (describes
#: and per-piece token counts are already memoized) than to key and look
#: up, so the memo only engages once the window is long enough for the
#: join + token summation to dominate.
_DIALOGUE_MEMO_MIN_MESSAGES = 12


class PromptBuilder:
    """Fluent builder producing :class:`Prompt` objects from sim objects.

    The builder mirrors how the benchmarked systems assemble prompts:
    a fixed system preamble, the task, the current observation, retrieved
    memory rendered as natural-language facts, the (growing) dialogue
    history, and finally the enumerated action candidates — the paper's
    "formalizing the action list" (Sec. II-A).

    Stable sections are interned and piecewise sections are
    token-counted additively from cached per-piece counts; every section
    carries the text and token count plain tokenization would give.
    """

    def __init__(self, system_text: str = "", task_text: str = "") -> None:
        self._prompt = Prompt()
        if system_text:
            self._static("system", system_text)
        if task_text:
            self._static("task", task_text)

    def _static(self, name: str, text: str) -> None:
        self._prompt.append_section(intern_section(name, text))

    def observation(self, observation: Observation | None) -> "PromptBuilder":
        if observation is not None:
            # The rendering is " "-joined period-terminated clauses
            # (position line + one per fact), so the token count is
            # additive over the clauses: the position line via the
            # (tiny-vocabulary) tokenizer cache, each fact via its
            # instance memo plus one token for the period.  This skips
            # re-tokenizing the joined text, which would otherwise be the
            # single largest distinct-string source, while producing the
            # exact same count.
            text = observation.describe()
            tokens = observation.__dict__.get("_ptokens")
            if tokens is None:
                head = f"{observation.agent} is at {observation.position}."
                tokens = count_tokens(head)
                for fact in observation.facts:
                    tokens += _piece_tokens(fact, fact.describe()) + 1
                object.__setattr__(observation, "_ptokens", tokens)
            self._prompt.append_section(PromptSection("observation", text, tokens))
        return self

    def memory(self, facts: "Sequence[Fact]") -> "PromptBuilder":
        if facts:
            # Tuple inputs come from per-step staged payloads
            # (communication) whose identity is stable across the step's
            # dialogue rounds; reuse their rendered section wholesale.
            if type(facts) is tuple:
                section = _MEMORY_SECTIONS.get(facts)
                if section is None:
                    section = _described_section("memory", facts)
                    _MEMORY_SECTIONS.put(facts, section)
                self._prompt.append_section(section)
                return self
            self.described_list("memory", facts)
        return self

    def described_list(self, name: str, items) -> "PromptBuilder":
        """Add a section of period-terminated ``describe()`` renderings.

        Renders ``item.describe() + "."`` for each item, space-joined —
        the shape shared by memory facts and action histories.  Tokens are
        counted additively (each rendered piece plus one token for its
        period) instead of re-tokenizing the joined text.
        """
        if items:
            self._prompt.append_section(_described_section(name, items))
        return self

    def dialogue(
        self, messages: list[Message], window_key: str | None = None
    ) -> "PromptBuilder":
        """Append dialogue history, truncated to the most recent window.

        Real systems cannot concatenate unbounded dialogue — they truncate
        at the context limit.  The cap keeps the paper's token-growth
        dynamics (Fig. 6) while bounding prompt size for large teams.

        ``window_key`` names the conversation (normally the rendering
        agent) so long windows render incrementally across steps; callers
        without a stable identity omit it and pay the full per-window
        render.
        """
        if messages:
            recent = messages[-MAX_DIALOGUE_MESSAGES:]
            if window_key is not None and len(recent) >= _DIALOGUE_MEMO_MIN_MESSAGES:
                section = _DIALOGUE_SECTIONS.section(window_key, recent, source=messages)
            else:
                parts = []
                append = parts.append
                tokens = 0
                for message in recent:
                    memo = message.__dict__
                    part = memo.get("_described")
                    if part is None:
                        part = message.describe()
                    append(part)
                    count = memo.get("_ptokens")
                    if count is None:
                        count = _piece_tokens(message, part)
                    tokens += count
                section = PromptSection("dialogue", " ".join(parts), tokens)
            self._prompt.append_section(section)
        return self

    def candidates(self, candidates: "Sequence[Candidate]") -> "PromptBuilder":
        if not candidates:
            return self
        if isinstance(candidates, tuple):
            # Candidate tuples from the env cache keep their identity
            # while beliefs are unchanged; reuse their rendered section.
            section = _CANDIDATE_SECTIONS.get(candidates)
            if section is None:
                # Cache-stable tuples share their columnar features with
                # the behaviour kernel (:mod:`repro.envs.candidates`):
                # descriptions are prerendered and token counts
                # pretotaled, so a miss here is a join plus two adds
                # rather than a describe + count per candidate.
                features = candidate_features(candidates)
                prefixes, _, cumulative = _index_scaffold(len(candidates))
                text = " ".join(
                    prefix + described
                    for prefix, described in zip(prefixes, features.described)
                )
                tokens = cumulative[len(candidates)] + features.desc_tokens_total
                section = PromptSection("candidates", text, tokens)
                _CANDIDATE_SECTIONS.put(candidates, section)
            self._prompt.append_section(section)
            return self
        prefixes, index_tokens, _ = _index_scaffold(len(candidates))
        lines = []
        tokens = 0
        for index, candidate in enumerate(candidates):
            described = candidate.subgoal.describe()
            lines.append(prefixes[index] + described)
            tokens += index_tokens[index] + count_tokens(described)
        self._prompt.append_section(PromptSection("candidates", " ".join(lines), tokens))
        return self

    def extra(self, name: str, text: str) -> "PromptBuilder":
        self._prompt.add(name, text)
        return self

    def static_extra(self, name: str, text: str) -> "PromptBuilder":
        """Add a stable section (fixed instruction), interned."""
        if text:
            self._static(name, text)
        return self

    def build(self) -> Prompt:
        return self._prompt


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
