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
history every step.  Observations keep a per-slot history index (newest
entry per ``(subject, relation)``, insertion-ordered within equal steps)
and a per-step count table, so newest-wins resolution is O(#slots) and the
scanned-entry count is O(1) amortized; action and dialogue stores append
in non-decreasing step order, so their retention windows are bisected, not
filtered.  Confused retrievals (and any out-of-order access the guards
detect) take the linear scan instead, which produces the same retrieval.

Step-batched deliveries (:mod:`repro.core.bus`): a message's modeled store
latency is charged at :meth:`stage_message` time while its dialogue and
observation writes wait for one :meth:`commit_staged_messages` per step.
Read paths refuse to serve while deliveries are staged.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter

from repro.core.beliefs import Beliefs
from repro.core.clock import ModuleName
from repro.core.modules.base import ModuleContext
from repro.core.types import Fact, Message, Subgoal, _memo_describe

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

_FACT_STEP = attrgetter("step")


@dataclass(frozen=True)
class ActionRecord:
    """One entry of action memory."""

    step: int
    subgoal: Subgoal
    success: bool

    def describe(self) -> str:
        cached = self.__dict__.get("_described")
        if cached is not None:
            return cached
        outcome = "succeeded" if self.success else "failed"
        text = f"at step {self.step} you chose to {self.subgoal.describe()} and it {outcome}"
        return _memo_describe(self, text)


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
        #: Per-slot observation history, each list sorted by fact step with
        #: ties in insertion order — the last entry is the newest-wins
        #: resolution candidate for its slot.
        self._slot_history: dict[tuple[str, str], list[Fact]] = {}
        #: The history's keys kept in sorted order (maintained by insort
        #: on first sight, removal on :meth:`forget`), so newest-wins
        #: resolution emits its sorted output without a per-retrieve sort.
        self._sorted_slot_keys: list[tuple[str, str]] = []
        #: #observations per fact step, for O(1) window-size accounting.
        self._obs_step_counts: Counter[int] = Counter()
        #: Window-eviction accumulator: #observations with step below
        #: ``_evict_start`` (the window start already accounted for).
        self._evict_start = 0
        self._evicted_obs = 0
        #: Append-order step columns of the action/dialogue stores plus a
        #: monotonicity guard; bisecting them is only valid while sorted.
        self._action_steps: list[int] = []
        self._dialogue_steps: list[int] = []
        self._steps_sorted = True
        #: Static facts pre-assembled as a belief base, copied per step.
        self._static_beliefs = Beliefs.from_facts(self._static)
        #: Step-batched delivery bus staging: messages whose store latency
        #: is already charged but whose writes are deferred to one batched
        #: :meth:`commit_staged_messages`.
        self._staged_messages: list[Message] = []

    # ------------------------------------------------------------------ #
    # Stores
    # ------------------------------------------------------------------ #

    def store_observation(self, facts: tuple[Fact, ...]) -> None:
        self._observations.extend(facts)
        self._index_facts(facts)
        self._charge(STORE_SECONDS, "store_observation")

    def store_action(self, step: int, subgoal: Subgoal, success: bool) -> None:
        self._actions.append(ActionRecord(step=step, subgoal=subgoal, success=success))
        if self._action_steps and step < self._action_steps[-1]:
            self._steps_sorted = False
        self._action_steps.append(step)
        self._charge(STORE_SECONDS, "store_action")

    # ------------------------------------------------------------------ #
    # Step-batched delivery staging (repro.core.bus)
    # ------------------------------------------------------------------ #

    def stage_message(self, message: Message) -> None:
        """Charge one message's store now; defer its write to the commit.

        The modeled ``store_dialogue`` latency lands on the virtual clock
        at delivery time (between the sender's compose and the next
        compose), but the dialogue/observation index writes can wait
        until the whole step's deliveries are known.  Every stage must be
        followed by :meth:`commit_staged_messages` before the next
        retrieval — the read paths guard against forgotten commits.
        """
        self._staged_messages.append(message)
        self._charge(STORE_SECONDS, "store_dialogue")

    def commit_staged_messages(self) -> None:
        """Apply all staged message writes in delivery order, in one pass.

        The dialogue log, the observation store, and the retrieval indices
        grow in delivery order; the latency was charged at stage time.
        """
        staged = self._staged_messages
        if not staged:
            return
        self._staged_messages = []
        observations = self._observations
        dialogue = self._dialogue
        dialogue_steps = self._dialogue_steps
        for message in staged:
            dialogue.append(message)
            observations.extend(message.facts)
            if dialogue_steps and message.step < dialogue_steps[-1]:
                self._steps_sorted = False
            dialogue_steps.append(message.step)
            self._index_facts(message.facts)

    def _index_fact(self, fact: Fact) -> None:
        """Maintain the slot-history and step-count indices for one fact."""
        self._index_facts((fact,))

    def _index_facts(self, facts) -> None:
        """Index a batch of facts with the table lookups bound once.

        Fact batches arrive one frame (or one message payload) at a time,
        so binding the index tables per batch instead of per fact removes
        most of the attribute traffic of the per-fact form.
        """
        step_counts = self._obs_step_counts
        evict_start = self._evict_start
        history = self._slot_history
        get = history.get
        sorted_keys = self._sorted_slot_keys
        evicted = 0
        for fact in facts:
            step = fact.step
            step_counts[step] += 1
            if step < evict_start:
                evicted += 1
            key = (fact.subject, fact.relation)
            entries = get(key)
            if entries is None:
                history[key] = [fact]
                insort(sorted_keys, key)
            elif step >= entries[-1].step:
                # The common case: first-hand observations arrive in step
                # order.
                entries.append(fact)
            else:
                # Message facts can carry older provenance; keep the list
                # sorted by step with ties in insertion order (insort-right
                # matches the stable sort of the linear scan).
                insort(entries, fact, key=_FACT_STEP)
        if evicted:
            self._evicted_obs += evicted

    # ------------------------------------------------------------------ #
    # Retrieval
    # ------------------------------------------------------------------ #

    def _window_start(self, step: int) -> int:
        return max(0, step - self.capacity_steps)

    def retrieve(self, step: int) -> RetrievedMemory:
        """Fetch everything within the retention window, with latency."""
        if self._staged_messages:
            raise RuntimeError(
                "staged message deliveries must be committed before retrieval "
                "(DeliveryBus.flush was not called)"
            )
        start = self._window_start(step)
        if self._steps_sorted:
            return self._retrieve_indexed(step, start)
        return self._retrieve_linear(step, start)

    def _retrieve_linear(self, step: int, start: int) -> RetrievedMemory:
        """Full scans of every store, for out-of-order stores."""
        observations = [fact for fact in self._observations if fact.step >= start]
        actions = [record for record in self._actions if record.step >= start]
        dialogue = [message for message in self._dialogue if message.step >= start]
        scanned = len(observations) + len(actions) + len(dialogue)
        if not self.dual:
            scanned += len(self._static)
        latency = RETRIEVE_BASE_SECONDS + RETRIEVE_PER_ENTRY_SECONDS * scanned
        self._charge(latency, "retrieve")

        confused = self._draw_confusion(step)
        facts = self._resolve_slots(observations, confused)
        return RetrievedMemory(
            facts=facts,
            action_records=actions,
            dialogue=dialogue,
            scanned_entries=scanned,
            confused=confused,
        )

    def _retrieve_indexed(self, step: int, start: int) -> RetrievedMemory:
        """Index-served retrieval: same scanned count, same modeled latency."""
        scanned = self._observations_in_window(start)
        actions = self._actions[bisect_left(self._action_steps, start) :]
        dialogue = self._dialogue[bisect_left(self._dialogue_steps, start) :]
        scanned += len(actions) + len(dialogue)
        if not self.dual:
            scanned += len(self._static)
        latency = RETRIEVE_BASE_SECONDS + RETRIEVE_PER_ENTRY_SECONDS * scanned
        self._charge(latency, "retrieve")

        confused = self._draw_confusion(step)
        if confused:
            # Confusion needs the full in-window history (which slots are
            # contested, in first-occurrence order); take the linear
            # scan's resolution so the extra rng draw sees identical inputs.
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
        """One rng draw shared by both retrieval paths (same draw order)."""
        window_steps = min(step, self.capacity_steps)
        overflow = window_steps - CONFUSION_ONSET_STEPS
        if overflow > 0 and not self.dual:
            probability = min(CONFUSION_PROB_CAP, overflow * CONFUSION_PROB_PER_STEP)
            return bool(self.context.rng.random() < probability)
        return False

    def _observations_in_window(self, start: int) -> int:
        """#stored observation facts with ``step >= start`` in O(1) amortized.

        The retention window's start is non-decreasing over an episode, so
        evicted counts accumulate; a backwards query (tests may probe one)
        recounts from the per-step table instead of corrupting the
        accumulator.
        """
        if start >= self._evict_start:
            for evicted_step in range(self._evict_start, start):
                self._evicted_obs += self._obs_step_counts.get(evicted_step, 0)
            self._evict_start = start
            below = self._evicted_obs
        else:
            below = sum(
                count for s, count in self._obs_step_counts.items() if s < start
            )
        return len(self._observations) - below

    def _resolve_from_index(self, start: int) -> list[Fact]:
        """Newest-wins resolution straight from the slot-history index.

        A slot's newest fact overall is also its newest *in-window* fact
        whenever it is in the window at all (the window is a suffix of the
        step axis), so resolution never touches older entries.  Walking
        the sorted key mirror emits the facts already in the linear
        scan's ``(subject, relation)`` output order (slot keys are
        unique, so sortedness alone pins the order).
        """
        history = self._slot_history
        resolved = []
        append = resolved.append
        for key in self._sorted_slot_keys:
            fact = history[key][-1]
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
        retrieved: RetrievedMemory | None = None,
    ) -> Beliefs:
        """Static + retrieved + current facts, with negative evidence."""
        if retrieved is None:
            retrieved = self.retrieve(step)
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
        if self._slot_history.pop(key, None) is not None:
            index = bisect_left(self._sorted_slot_keys, key)
            del self._sorted_slot_keys[index]
        self._observations = [
            fact for fact in self._observations if fact.key() != key
        ]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def total_entries(self) -> int:
        return len(self._observations) + len(self._actions) + len(self._dialogue)

    def dialogue_window(self, step: int) -> list[Message]:
        if self._staged_messages:
            raise RuntimeError(
                "staged message deliveries must be committed before reading "
                "the dialogue window (DeliveryBus.flush was not called)"
            )
        start = self._window_start(step)
        if self._steps_sorted:
            return self._dialogue[bisect_left(self._dialogue_steps, start) :]
        return [message for message in self._dialogue if message.step >= start]

    def _charge(self, seconds: float, phase: str) -> None:
        self.context.clock.advance(seconds, ModuleName.MEMORY, phase=phase)
