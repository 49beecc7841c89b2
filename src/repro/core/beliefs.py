"""The agent's belief state: what it currently thinks is true.

Beliefs are the read-side contract between the memory module (which owns
retention and retrieval) and the environment adapters (which enumerate
feasible subgoals against what the agent *knows*, not against ground
truth).  A belief slot is a ``(subject, relation)`` pair holding the most
recently learned value; contradicting facts overwrite older ones, and
stale beliefs — slots whose value no longer matches the world — are the
mechanism behind the paper's memory-inconsistency observations.

Message deliveries merge slot by slot: a :class:`DeliveryIndex` groups
one delivery flush's facts by slot once, and every receiver merges from
that shared index (:meth:`Beliefs.merge_index`, and the memory module's
commit) instead of walking its own copy of the fact stream.  Per slot,
the arrival with the highest step wins and a later arrival wins a tie —
the rule :meth:`Beliefs.update` applies fact by fact — so the result is
the same.  Slot order inside a ``Beliefs`` is not part of its contract:
every reader looks slots up by key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.core.types import Fact, Message

#: One run of a :class:`DeliveryIndex` slot: consecutive arrivals of one
#: ``Fact`` object, whether they are payload (``True``) or intent facts,
#: and the ascending indices of the messages that carried them.
Run = tuple[Fact, bool, list[int]]


@dataclass
class Beliefs:
    """A mutable view of the agent's current knowledge."""

    _slots: dict[tuple[str, str], Fact] = field(default_factory=dict)

    @classmethod
    def from_facts(cls, facts: Iterable[Fact]) -> "Beliefs":
        beliefs = cls()
        beliefs.update(facts)
        return beliefs

    def update(self, facts: Iterable[Fact]) -> int:
        """Merge facts; *newer* facts win their slot.  Returns #novel facts.

        A fact is novel if its slot was absent, or it carries a different
        value with at-least-as-recent provenance — the counter implements
        the paper's message-usefulness metric.  Older conflicting facts
        (stale gossip from a teammate's outdated view) never overwrite
        fresher knowledge.
        """
        novel = 0
        slots = self._slots
        get = slots.get
        for fact in facts:
            key = (fact.subject, fact.relation)
            existing = get(key)
            if existing is None:
                novel += 1
                slots[key] = fact
            elif fact.step >= existing.step:
                if existing.value != fact.value:
                    novel += 1
                slots[key] = fact
        return novel

    def merge_index(
        self, index: "DeliveryIndex", addressed: Sequence[bool], useful: list[bool]
    ) -> None:
        """Merge the flush arrivals addressed to this receiver, slot by slot.

        Equals :meth:`update` applied to each addressed message in
        delivery order — its payload, then its intent facts — with one
        step per run instead of one per arrival: inside a run every
        arrival after the first addressed one re-merges the object the
        slot already holds (or loses to the same newer fact again).
        ``useful[i]`` is set when message ``i``'s payload merged a novel
        fact; intent facts merge but never count toward novelty.
        """
        slots = self._slots
        get = slots.get
        for key, runs in index.slots.items():
            existing = get(key)
            merged = existing
            for fact, payload, carriers in runs:
                for carrier in carriers:
                    if addressed[carrier]:
                        break
                else:
                    continue
                if merged is None:
                    if payload:
                        useful[carrier] = True
                    merged = fact
                elif fact.step >= merged.step:
                    if payload and merged.value != fact.value:
                        useful[carrier] = True
                    merged = fact
            if merged is not existing:
                slots[key] = merged

    def overwrite(self, facts: Iterable[Fact]) -> None:
        """Bulk-merge facts that are guaranteed to win their slots.

        Equivalent to :meth:`update` when every incoming fact has a unique
        slot within ``facts`` and provenance at least as recent as the
        slot's current value — the contract of a newest-wins retrieval
        merged over a static belief base.  Skips the per-fact novelty
        bookkeeping (bulk callers don't read it), letting the merge run as
        one C-level dict update on the hot path.
        """
        self._slots.update(
            [((fact.subject, fact.relation), fact) for fact in facts]
        )

    def value(self, subject: str, relation: str) -> str | None:
        fact = self._slots.get((subject, relation))
        return fact.value if fact is not None else None

    def values_at(self, keys: Iterable[tuple[str, str]]) -> tuple[str | None, ...]:
        """Current values of several slots as one tuple (``None`` = unknown).

        One call reads a fixed list of slots, such as the deposit and
        visited slots a MineWorld menu enumerates over.  Provenance steps
        are excluded: affordances depend on what is believed, not on when
        it was learned.
        """
        slots = self._slots
        out = []
        for key in keys:
            fact = slots.get(key)
            out.append(fact.value if fact is not None else None)
        return tuple(out)

    def forget(self, subject: str, relation: str) -> bool:
        """Drop a slot (reflection's belief repair).  True if it existed."""
        return self._slots.pop((subject, relation), None) is not None

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._slots.values())

    # ``in`` would fall back to __iter__ and compare a slot key with Facts,
    # silently reading False: look slots up with :meth:`value` instead.
    __contains__ = None

    def copy(self) -> "Beliefs":
        return Beliefs(dict(self._slots))


class DeliveryIndex:
    """One delivery flush's message facts, grouped by belief slot.

    Built once per flush, in delivery order: each message's payload facts,
    then its intent facts.  ``slots`` maps each ``(subject, relation)``
    slot to its :data:`Run` list.  A run breaks on object identity, not
    equality, so equal but distinct facts form separate runs and no
    result depends on which copy a sender shared.  ``step_counts[i]`` is
    message ``i``'s ``{fact step: count}`` histogram over its payload,
    repeats included.

    ``intents[i]`` holds message ``i``'s intent facts: receivers merge
    them into beliefs for conflict avoidance, but memory never stores
    them and they never count toward novelty.
    """

    __slots__ = ("messages", "slots", "step_counts")

    def __init__(
        self,
        messages: Sequence[Message],
        intents: Sequence[Sequence[Fact]],
    ) -> None:
        self.messages = messages
        self.slots: dict[tuple[str, str], list[Run]] = {}
        self.step_counts: list[dict[int, int]] = []
        slots = self.slots
        get = slots.get
        for index, message in enumerate(messages):
            payload_facts = message.facts
            counts: dict[int, int] = {}
            for fact in payload_facts:
                counts[fact.step] = counts.get(fact.step, 0) + 1
            self.step_counts.append(counts)
            for facts, payload in ((payload_facts, True), (intents[index], False)):
                for fact in facts:
                    key = (fact.subject, fact.relation)
                    runs = get(key)
                    if runs is None:
                        slots[key] = [(fact, payload, [index])]
                        continue
                    last, last_payload, carriers = runs[-1]
                    if last is not fact or last_payload is not payload:
                        runs.append((fact, payload, [index]))
                    elif carriers[-1] != index:
                        carriers.append(index)

    def newest(self, addressed: Sequence[bool]) -> Iterator[tuple[tuple[str, str], Fact]]:
        """Each slot's batch winner among the addressed payload arrivals.

        The winner is the arrival with the highest step, a later arrival
        winning a tie: what :meth:`Beliefs.update`'s rule leaves after
        merging those arrivals in order.  Intent runs never take part.
        Yields ``(slot, fact)`` for every slot with an addressed payload.
        """
        for key, runs in self.slots.items():
            winner = None
            for fact, payload, carriers in runs:
                if not payload or (winner is not None and fact.step < winner.step):
                    continue
                for carrier in carriers:
                    if addressed[carrier]:
                        winner = fact
                        break
            if winner is not None:
                yield key, winner
