"""Incremental candidate enumeration keyed on belief deltas.

Environment ``candidates()`` is one of the dominant per-step costs of the
episode loop (the ``envs`` layer of the end-to-end benchmark): a naive
enumeration rebuilds every macro step the full list of :class:`~repro.core.types.Candidate`
/ :class:`~repro.core.types.Subgoal` objects from scratch, even though an
agent's beliefs — and therefore its affordances — change in only a few slots
per step.

This module provides the machinery for rebuilding *only what changed*:

- A :class:`CandidateSlot` is one independently-cacheable group of
  candidates (one goal object's fetch option, one room's explore option,
  the craft menu, ...).  Its ``deps`` tuple captures **every** input the
  builder reads — belief values and mutable environment state alike.  A
  slot whose deps compare equal to last step's reuses last step's built
  candidates (identical objects, not just equal values).
- A :class:`CandidateCache` holds, per agent, the previously built slots
  and assembles the full candidate sequence by concatenating cached and
  freshly built groups **in slot order**, so the result is element-for-
  element identical to a full enumeration.

Correctness contract (enforced by the committed goldens,
``tests/core/test_goldens.py``, and ``tests/envs/test_candidate_cache.py``):

- Deps must be *complete*: anything that can change a slot's built
  candidates — a belief value, an inventory count, an object's holder —
  must appear in ``deps``.  A missing dep serves a stale slot, which
  shows up as a divergence from the goldens.
- Builders must be *pure* given their deps: no RNG draws, no environment
  mutation, and the same deps must always produce value-equal candidates.

When all slots hit, ``assemble`` returns the previous **tuple object**
unchanged.  Downstream caches key on that identity: the behaviour kernel
reuses its candidate scoreboard (:mod:`repro.llm.behavior`) and the prompt
builder reuses the rendered candidates section (:mod:`repro.llm.prompt`),
so an unchanged belief state costs a few tuple compares instead of an
enumeration, a re-scoring, and a re-render.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.core.errors import FaultKind
from repro.core.types import Candidate, Subgoal


class CandidateSlot(NamedTuple):
    """One independently-cacheable group of candidates.

    ``key`` identifies the slot across steps (e.g. ``"fetch:mug"``),
    ``deps`` is the complete tuple of inputs the builder reads, and
    ``build`` produces the slot's candidates (possibly none) when deps
    changed.  Slots are cheap to construct — deps are plain value reads —
    so emitting the slot list every step costs far less than building
    every candidate.
    """

    key: str
    deps: tuple
    build: Callable[[], Sequence[Candidate]]


class CandidateCache:
    """Per-agent incremental assembly of environment candidate lists.

    One cache lives on each environment instance (episode-scoped, like
    the grid path memo) and serves every caller of ``env.candidates`` —
    the per-agent planning loop as well as centralized/hybrid paradigms
    that enumerate for the whole team each step.
    """

    __slots__ = ("_by_agent", "rebuilt_slots", "reused_slots")

    def __init__(self) -> None:
        # agent -> (slot_state, assembled, keys, deps) where slot_state
        # maps slot key -> (deps, built candidates tuple), assembled is
        # the last returned tuple, and keys/deps mirror the slot order so
        # the all-hit check compares flat tuples without dict lookups.
        self._by_agent: dict[
            str, tuple[dict[str, tuple[tuple, tuple]], tuple, tuple, tuple]
        ] = {}
        #: Instrumentation for tests and profiling: how many slot builders
        #: ran vs. were served from cache since construction.
        self.rebuilt_slots = 0
        self.reused_slots = 0

    def assemble(self, agent: str, slots: Sequence[CandidateSlot]) -> tuple[Candidate, ...]:
        """Concatenate slot candidates, rebuilding only changed slots."""
        previous = self._by_agent.get(agent)
        if previous is not None and len(slots) == len(previous[2]):
            # All-hit fast path (the steady state): same slot keys in the
            # same order with equal deps hands back the identical tuple —
            # identity-keyed downstream caches hit — without assembling
            # anything.
            state, assembled, keys, deps = previous
            for slot, key, dep in zip(slots, keys, deps):
                if slot.key != key or slot.deps != dep:
                    break
            else:
                self.reused_slots += len(keys)
                return assembled
        state = previous[0] if previous is not None else {}
        new_state: dict[str, tuple[tuple, tuple]] = {}
        groups: list[tuple[Candidate, ...]] = []
        for slot in slots:
            cached = state.get(slot.key)
            if cached is not None and cached[0] == slot.deps:
                built = cached[1]
                self.reused_slots += 1
                new_state[slot.key] = cached
            else:
                built = tuple(slot.build())
                self.rebuilt_slots += 1
                new_state[slot.key] = (slot.deps, built)
            if built:
                groups.append(built)
        if len(groups) == 1:
            # A single contributing slot: hand back its cached tuple so a
            # dep-preserving rebuild of the *other* slots keeps identity.
            assembled = groups[0]
        else:
            assembled = tuple(candidate for group in groups for candidate in group)
        self._by_agent[agent] = (
            new_state,
            assembled,
            tuple(slot.key for slot in slots),
            tuple(slot.deps for slot in slots),
        )
        return assembled

    def reset(self) -> None:
        """Drop all cached state (tests; not needed in episodes)."""
        self._by_agent.clear()


def idle_candidates(utility: float) -> list[Candidate]:
    """Builder for the standard idle fallback candidate (a static slot)."""
    return [Candidate(subgoal=Subgoal(name="idle"), utility=utility)]


# --------------------------------------------------------------------- #
# Vectorized candidate features
# --------------------------------------------------------------------- #

#: Stable integer coding of ``Candidate.fault``: 0 = no fault, otherwise
#: ``1 + FaultKind`` enumeration index.  Arrays of these codes let the
#: behaviour kernel's scoreboard test fault membership with one numpy
#: compare instead of a per-candidate identity check.
FAULT_NONE = 0
FAULT_CODES: dict[FaultKind, int] = {
    kind: index + 1 for index, kind in enumerate(FaultKind)
}

#: The tokenizer is imported lazily: ``repro.llm.behavior`` imports this
#: module at class-definition time, so a top-level ``repro.llm`` import
#: here would close an import cycle through the two package __init__s.
#: Feature extraction only runs at episode time, long after both
#: packages finished importing, so the first call binds the real
#: function and every later call pays one module-global read.
_count_tokens: Callable[[str], int] | None = None


class CandidateFeatures(NamedTuple):
    """Columnar ("structure of arrays") view of one candidate sequence.

    One pass over the candidates fills numpy columns for everything the
    planning hot path scores or renders per candidate:

    - ``utilities`` / ``feasible`` / ``fault_codes`` feed the behaviour
      kernel's scoreboard (:mod:`repro.llm.behavior`), which derives its
      clean/tie/fault pools as boolean-mask index arrays instead of
      re-walking the candidates once per pool;
    - ``subgoals`` supports the only per-candidate predicate that cannot
      be precomputed (blacklist membership — the blacklist arrives with
      the decision request, not with the candidates);
    - ``described`` / ``desc_tokens`` / ``desc_tokens_total`` feed the
      prompt builder's candidates section (:mod:`repro.llm.prompt`),
      which joins prerendered lines and adds pretotaled token counts
      instead of describing and re-counting per candidate.

    Features are a pure function of the candidate values — extraction
    consumes no randomness and mutates nothing — so the columnar scoring
    path picks exactly what the scalar kernel would.
    """

    utilities: np.ndarray
    feasible: np.ndarray
    fault_codes: np.ndarray
    subgoals: tuple[Subgoal, ...]
    described: tuple[str, ...]
    desc_tokens: np.ndarray
    desc_tokens_total: int


def extract_features(candidates: Sequence[Candidate]) -> CandidateFeatures:
    """One-pass columnar extraction over ``candidates``."""
    global _count_tokens
    if _count_tokens is None:
        from repro.llm.tokenizer import count_tokens

        _count_tokens = count_tokens
    count = _count_tokens
    codes = FAULT_CODES
    # Comprehension-per-column beats element-wise ndarray assignment for
    # the small candidate sets the environments enumerate: each column is
    # one C-speed pass plus one bulk conversion.
    subgoals = tuple(candidate.subgoal for candidate in candidates)
    described = tuple(subgoal.describe() for subgoal in subgoals)
    desc_token_list = [count(text) for text in described]
    return CandidateFeatures(
        utilities=np.array(
            [candidate.utility for candidate in candidates], dtype=np.float64
        ),
        feasible=np.array(
            [candidate.feasible for candidate in candidates], dtype=bool
        ),
        fault_codes=np.array(
            [
                FAULT_NONE if candidate.fault is None else codes[candidate.fault]
                for candidate in candidates
            ],
            dtype=np.int8,
        ),
        subgoals=subgoals,
        described=described,
        desc_tokens=np.array(desc_token_list, dtype=np.int64),
        desc_tokens_total=sum(desc_token_list),
    )


class _FeatureMemo:
    """Bounded identity-keyed memo: candidate tuple -> features.

    The environment candidate cache returns the same tuple object while
    an agent's affordances are unchanged, so features can be reused by
    object identity (id lookup plus an ``is`` check).  Entries pin their
    key tuple — ids cannot be recycled while cached — and features are
    immutable, so sharing across the scoreboard and the prompt builder
    is safe.  A lock guards the map for the suite's threaded
    ``--concurrent-sections`` mode.
    """

    def __init__(self, capacity: int = 256) -> None:
        self._entries: OrderedDict[
            int, tuple[tuple[Candidate, ...], CandidateFeatures]
        ] = OrderedDict()
        self._capacity = capacity
        self._lock = threading.Lock()

    def get(self, key_obj: tuple[Candidate, ...]) -> CandidateFeatures | None:
        with self._lock:
            entry = self._entries.get(id(key_obj))
            if entry is None or entry[0] is not key_obj:
                return None
            self._entries.move_to_end(id(key_obj))
            return entry[1]

    def put(self, key_obj: tuple[Candidate, ...], features: CandidateFeatures) -> None:
        with self._lock:
            self._entries[id(key_obj)] = (key_obj, features)
            if len(self._entries) > self._capacity:
                self._entries.popitem(last=False)


_FEATURES = _FeatureMemo()


def candidate_features(candidates: tuple[Candidate, ...]) -> CandidateFeatures:
    """Features for a (cache-stable) candidate tuple, memoized by identity.

    The first consumer of a new tuple — the prompt builder assembles
    before the kernel scores — pays the single extraction pass; every
    other consumer, and every later step that reuses the tuple, gets the
    cached columns.
    """
    features = _FEATURES.get(candidates)
    if features is None:
        features = extract_features(candidates)
        _FEATURES.put(candidates, features)
    return features
