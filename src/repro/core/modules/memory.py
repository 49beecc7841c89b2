"""Memory module: observation, action, and dialogue stores.

Implements the paper's three memory categories (Sec. II-A) with a
step-count retention window — the capacity axis of Fig. 5:

- retrieval latency grows linearly with the number of scanned entries,
- beliefs are reconstructed newest-wins from retained observations,
- very large stores suffer *confused recall*: occasionally an older value
  wins a slot, reproducing the memory-inconsistency decline at high
  capacity,
- the ``dual`` option (Recommendation 5) keeps static facts in a long-term
  store exempt from scanning and confusion, shrinking both latency and
  inconsistency.

The module also applies *negative evidence*: if the agent is at a location
where memory says an object should be, but the current observation does
not show it, the stale belief is dropped — the perception-level correction
that keeps no-reflection agents from looping forever.

Indexed retrieval: the *modeled* retrieval latency is ``base +
per_entry × scanned`` over the in-window entry count (Fig. 5), but the
*host* cost of producing a retrieval does not re-scan the whole episode
history every step.  Observations keep a newest-per-slot map (the stored
fact with the highest step per ``(subject, relation)``, the later arrival
winning a tie) and a per-step count table, so newest-wins resolution is
O(#slots) and the scanned-entry count is O(1) amortized; action and
dialogue stores append in non-decreasing step order (an out-of-order
store raises ``ValueError``, as does a retrieval whose window start
moves backwards), so their retention windows are bisected, not
filtered.  Confused retrievals resolve slots from a scan of the
in-window observations instead.

Step-batched deliveries (:mod:`repro.core.bus`): the bus owns what is
staged.  It charges a message's modeled store latency through
:meth:`charge_store` when it stages the message, and its dialogue and
observation writes wait for one :meth:`commit_staged_messages` per
flush.  The commit selects from the flush's shared
:class:`~repro.core.beliefs.DeliveryIndex`, which holds what is the same
for every receiver: the dialogue log, the observation store and the
count table grow in bulk from its per-message columns, and each slot's
batch winner merges against the stored newest fact.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress
from operator import attrgetter
from typing import Sequence

from repro.core.beliefs import Beliefs, DeliveryIndex
from repro.core.clock import ModuleName
from repro.core.modules.base import ModuleContext
from repro.core.types import Fact, Message, Subgoal, memoized
from repro.llm.tokenizer import count_tokens

#: Retrieval latency model: fixed overhead + per-scanned-entry cost.
RETRIEVE_BASE_SECONDS = 0.02
RETRIEVE_PER_ENTRY_SECONDS = 0.0012
STORE_SECONDS = 0.006

#: Confused-recall model: when the retention window stretches past this
#: many steps of history, a retrieval may resolve one belief slot to an
#: outdated value (the paper's memory inconsistency at large capacities).
CONFUSION_ONSET_STEPS = 40
CONFUSION_PROB_PER_STEP = 0.035
CONFUSION_PROB_CAP = 0.5

_STEP = attrgetter("step")


@dataclass(frozen=True)
class ActionRecord:
    """One entry of action memory."""

    step: int
    subgoal: Subgoal
    success: bool

    def describe(self) -> str:
        outcome = "succeeded" if self.success else "failed"
        return f"at step {self.step} you chose to {self.subgoal.describe()} and it {outcome}"

    @memoized
    def tokens(self) -> int:
        """Token count of :meth:`describe`, counted in two halves that
        recur across records (the tokenizer is additive over spaces)."""
        outcome = "succeeded" if self.success else "failed"
        return count_tokens(f"at step {self.step}") + count_tokens(
            f"you chose to {self.subgoal.describe()} and it {outcome}"
        )


@dataclass(frozen=True)
class RetrievedMemory:
    """What one retrieval pass hands to the planner."""

    facts: list[Fact]
    action_records: list[ActionRecord]
    dialogue: list[Message]
    scanned_entries: int
    confused: bool


class MemoryModule:
    """Windowed observation/action/dialogue memory with retrieval costs."""

    def __init__(
        self,
        context: ModuleContext,
        capacity_steps: int,
        static_facts: list[Fact],
        dual: bool = False,
    ) -> None:
        if capacity_steps < 1:
            raise ValueError(f"capacity_steps must be >= 1: {capacity_steps}")
        self.context = context
        self.capacity_steps = capacity_steps
        self.dual = dual
        self._static = list(static_facts)
        self._observations: list[Fact] = []
        self._actions: list[ActionRecord] = []
        self._dialogue: list[Message] = []
        #: Newest stored fact per slot: the highest step, the later
        #: arrival winning a tie — the newest-wins resolution candidate.
        self._newest: dict[tuple[str, str], Fact] = {}
        #: The map's keys kept in sorted order (maintained by insort on
        #: first sight, removal on :meth:`forget`), so newest-wins
        #: resolution emits its sorted output without a per-retrieve sort.
        self._sorted_slot_keys: list[tuple[str, str]] = []
        #: #observations per fact step, for O(1) window-size accounting.
        self._obs_step_counts: Counter[int] = Counter()
        #: Window-eviction accumulator: #observations with step below
        #: ``_evict_start`` (the window start already accounted for).
        self._evict_start = 0
        self._evicted_obs = 0
        #: Step columns of the action/dialogue stores, non-decreasing
        #: (the stores refuse an out-of-order step), so windows bisect.
        self._action_steps: list[int] = []
        self._dialogue_steps: list[int] = []
        #: Static facts pre-assembled as a belief base, copied per step.
        self._static_beliefs = Beliefs.from_facts(self._static)

    # ------------------------------------------------------------------ #
    # Stores
    # ------------------------------------------------------------------ #

    def charge_store(self, phase: str, times: int = 1) -> None:
        """Charge ``times`` stores' modeled latency to ``(memory, phase)``.

        The observation and action stores charge their own writes here.
        :meth:`repro.core.bus.DeliveryBus.stage` charges a delivered
        message here (phase ``store_dialogue``), between the sender's
        compose and the next one, while the message's write waits for
        :meth:`commit_staged_messages`: one call with ``times=k`` for its
        k receivers with memory, which share the loop's clock, leaves
        the clock exactly as k calls would
        (:meth:`repro.core.clock.SimClock.advance`).
        """
        self.context.clock.advance(STORE_SECONDS, ModuleName.MEMORY, phase, times)

    def store_observation(self, facts: tuple[Fact, ...]) -> None:
        self._observations.extend(facts)
        self._index_facts(facts)
        self.charge_store("store_observation")

    def store_action(self, step: int, subgoal: Subgoal, success: bool) -> None:
        _check_order("action", step, self._action_steps)
        self._actions.append(ActionRecord(step=step, subgoal=subgoal, success=success))
        self._action_steps.append(step)
        self.charge_store("store_action")

    def commit_staged_messages(self, index: DeliveryIndex, addressed: Sequence[bool]) -> None:
        """Apply the message writes of one delivery flush.

        ``index`` is the flush's shared index and ``addressed`` marks the
        messages sent to this memory
        (:meth:`repro.core.bus.DeliveryBus.flush` passes both).  The index
        holds everything that is the same for every receiver, so the
        commit only selects from it: the dialogue log, its step column,
        the observation store and the count table grow in bulk from the
        index's columns, in delivery order, after one order check (the
        index already refused steps that decrease within the flush).  The
        newest-per-slot map takes each slot's batch winner
        (:meth:`~repro.core.beliefs.DeliveryIndex.winners`: the slot's best
        payload run when this memory was sent one of its carriers, else a
        walk over the slot's runs).  The latency was charged at stage time.
        """
        first_step = next(compress(index.steps, addressed), None)
        if first_step is None:
            return
        _check_order("dialogue", first_step, self._dialogue_steps)
        self._dialogue.extend(compress(index.messages, addressed))
        self._dialogue_steps.extend(compress(index.steps, addressed))
        facts = list(chain.from_iterable(compress(index.payloads, addressed)))
        self._observations.extend(facts)
        step_counts = self._obs_step_counts
        evict_start = self._evict_start
        evicted = 0
        # The facts share a few steps: account for them per step.
        for step, count in Counter(map(_STEP, facts)).items():
            step_counts[step] += count
            if step < evict_start:
                evicted += count
        self._evicted_obs += evicted
        for key, fact in index.winners(addressed):
            self._keep_newest(key, fact)

    def _index_facts(self, facts: tuple[Fact, ...]) -> None:
        """Index one observation frame."""
        step_counts = self._obs_step_counts
        evict_start = self._evict_start
        evicted = 0
        for fact in facts:
            step = fact.step
            step_counts[step] += 1
            if step < evict_start:
                evicted += 1
            self._keep_newest((fact.subject, fact.relation), fact)
        if evicted:
            self._evicted_obs += evicted

    def _keep_newest(self, key: tuple[str, str], fact: Fact) -> None:
        """Make ``fact`` its slot's newest unless a higher step is stored
        (the later of equal steps wins, as in :meth:`_resolve_slots`)."""
        stored = self._newest.get(key)
        if stored is None:
            insort(self._sorted_slot_keys, key)
        elif fact.step < stored.step:
            return
        self._newest[key] = fact

    # ------------------------------------------------------------------ #
    # Retrieval
    # ------------------------------------------------------------------ #

    def _window_start(self, step: int) -> int:
        return max(0, step - self.capacity_steps)

    def retrieve(self, step: int) -> RetrievedMemory:
        """Fetch everything within the retention window, with latency."""
        start = self._window_start(step)
        scanned = self._observations_in_window(start)
        actions = self._actions[bisect_left(self._action_steps, start) :]
        dialogue = self._dialogue[bisect_left(self._dialogue_steps, start) :]
        scanned += len(actions) + len(dialogue)
        if not self.dual:
            scanned += len(self._static)
        latency = RETRIEVE_BASE_SECONDS + RETRIEVE_PER_ENTRY_SECONDS * scanned
        self.context.clock.advance(latency, ModuleName.MEMORY, phase="retrieve")

        confused = self._draw_confusion(step)
        if confused:
            # Confusion needs the full in-window history (which slots are
            # contested, in first-occurrence order).
            window = [fact for fact in self._observations if fact.step >= start]
            facts = self._resolve_slots(window, confused=True)
        else:
            facts = self._resolve_from_index(start)
        return RetrievedMemory(
            facts=facts,
            action_records=actions,
            dialogue=dialogue,
            scanned_entries=scanned,
            confused=confused,
        )

    def _draw_confusion(self, step: int) -> bool:
        """One rng draw per retrieval once the window passes the onset."""
        window_steps = min(step, self.capacity_steps)
        overflow = window_steps - CONFUSION_ONSET_STEPS
        if overflow > 0 and not self.dual:
            probability = min(CONFUSION_PROB_CAP, overflow * CONFUSION_PROB_PER_STEP)
            return bool(self.context.rng.random() < probability)
        return False

    def _observations_in_window(self, start: int) -> int:
        """#stored observation facts with ``step >= start`` in O(1) amortized.

        The retention window's start is non-decreasing over an episode, so
        evicted counts accumulate; a start that moves backwards raises
        ``ValueError``, as an out-of-order store does.
        """
        if start < self._evict_start:
            raise ValueError(
                f"retention window moved backwards: start {start} below {self._evict_start}"
            )
        for evicted_step in range(self._evict_start, start):
            self._evicted_obs += self._obs_step_counts.get(evicted_step, 0)
        self._evict_start = start
        return len(self._observations) - self._evicted_obs

    def _resolve_from_index(self, start: int) -> list[Fact]:
        """Newest-wins resolution straight from the newest-per-slot map.

        A slot's newest fact overall is also its newest *in-window* fact
        whenever it is in the window at all (the window is a suffix of the
        step axis), so the map needs no older entries.  Walking the
        sorted key mirror emits the facts already in :meth:`_resolve_slots`'s
        ``(subject, relation)`` output order (slot keys are unique, so
        sortedness alone pins the order).
        """
        newest = self._newest
        resolved = []
        append = resolved.append
        for key in self._sorted_slot_keys:
            fact = newest[key]
            if fact.step >= start:
                append(fact)
        return resolved

    def _resolve_slots(self, observations: list[Fact], confused: bool) -> list[Fact]:
        """Newest-wins slot resolution; confusion lets one old value win.

        "Newest" means highest fact step, not append order: facts learned
        via messages carry the sender's (possibly older) provenance and
        must not shadow fresher first-hand observations.
        """
        history: dict[tuple[str, str], list[Fact]] = {}
        for fact in observations:
            history.setdefault(fact.key(), []).append(fact)
        for entries in history.values():
            entries.sort(key=lambda fact: fact.step)
        resolved = {key: entries[-1] for key, entries in history.items()}
        if confused:
            contested = [
                key
                for key, entries in history.items()
                if len({entry.value for entry in entries}) > 1
            ]
            if contested:
                key = contested[int(self.context.rng.integers(len(contested)))]
                resolved[key] = history[key][0]  # stale value wins
        return sorted(resolved.values(), key=lambda fact: (fact.subject, fact.relation))

    # ------------------------------------------------------------------ #
    # Beliefs
    # ------------------------------------------------------------------ #

    def beliefs(
        self,
        step: int,
        current_facts: tuple[Fact, ...],
        position: str,
        retrieved: RetrievedMemory,
    ) -> Beliefs:
        """Static + retrieved + current facts, with negative evidence."""
        # Resolved facts hold one entry per slot with step >= 0, so they
        # always win against the static base (step 0); current facts carry
        # this step's provenance, so they win against anything retrieved.
        # Plain dict merges equal Beliefs.update for both.
        beliefs = self._static_beliefs.copy()
        beliefs.overwrite(retrieved.facts)
        beliefs.overwrite(current_facts)
        visible_subjects = {fact.subject for fact in current_facts}
        for fact in list(beliefs):
            if (
                fact.relation == "located_in"
                and fact.value == position
                and fact.subject not in visible_subjects
            ):
                beliefs.forget(fact.subject, fact.relation)
        return beliefs

    def forget(self, subject: str, relation: str) -> None:
        """Belief repair (reflection): drop all stored facts for a slot."""
        key = (subject, relation)
        for fact in self._observations:
            if fact.key() == key:
                self._obs_step_counts[fact.step] -= 1
                if fact.step < self._evict_start:
                    self._evicted_obs -= 1
        if self._newest.pop(key, None) is not None:
            index = bisect_left(self._sorted_slot_keys, key)
            del self._sorted_slot_keys[index]
        self._observations = [
            fact for fact in self._observations if fact.key() != key
        ]


def _check_order(store: str, step: int, steps: list[int]) -> None:
    """Refuse a store whose step precedes the last one stored."""
    if steps and step < steps[-1]:
        raise ValueError(
            f"out-of-order {store} store: step {step} after step {steps[-1]}"
        )
