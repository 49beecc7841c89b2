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
unchanged, so an unchanged belief state costs a few tuple compares
instead of an enumeration.  Nothing downstream keys on that identity:
the behaviour kernel scores and the prompt builder counts each decision's
candidates afresh (:mod:`repro.llm.behavior`, :mod:`repro.llm.prompt`).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

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
            # same order with equal deps hands back the identical tuple
            # without assembling anything.
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
