"""The decision-quality kernel of the simulated LLM.

This module is the behavioural core of the substitution described in
DESIGN.md: instead of sampling text from a transformer, a decision call
selects among enumerated :class:`~repro.core.types.Candidate` subgoals.
The probability of a *correct* selection composes the factors the paper
identifies empirically:

``p_correct = reasoning × context_focus(prompt_tokens)
            × coordination^(n_joint − 1) × difficulty_factor``

- ``reasoning`` is the model's base capability (GPT-4 ≫ Llama-3-8B; Fig. 4),
- ``context_focus`` decays with prompt length (token dilution; Fig. 6 and
  the memory-inconsistency decline in Fig. 5),
- the ``coordination`` penalty compounds per jointly-planned agent (the
  centralized planner collapse in Fig. 7a),
- ``difficulty_factor`` makes hard tasks harder per decision.

On an incorrect selection a typed fault is sampled from the faults the
current candidate set makes *available* (you cannot hallucinate a target if
the environment adapter offered no hallucination candidates), which lets
reflection and metrics reason about error categories explicitly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.errors import FaultKind
from repro.core.settings import current
from repro.core.types import Candidate, Subgoal
from repro.envs.candidates import FAULT_CODES, FAULT_NONE, candidate_features

#: Per-extra-agent multiplicative penalty for jointly planning N agents.
COORDINATION_PENALTY = 0.94

#: Per-decision difficulty multipliers (easy tasks are near-neutral).
DIFFICULTY_FACTORS = {"easy": 1.0, "medium": 0.965, "hard": 0.92}

#: Relative propensities of fault types when an error occurs.  Suboptimal
#: choices dominate (they are "plausible but wrong"); outright
#: hallucinations are rarer.  Matches the qualitative mix in Sec. IV-B.
FAULT_WEIGHTS: dict[FaultKind, float] = {
    FaultKind.SUBOPTIMAL: 0.46,
    FaultKind.INFEASIBLE: 0.22,
    FaultKind.HALLUCINATION: 0.12,
    FaultKind.REPEATED: 0.12,
    FaultKind.STALE_MEMORY: 0.08,
}

#: Retries attempted on format (parse) failures before giving up and
#: falling back to a degraded choice.
MAX_FORMAT_RETRIES = 3


@dataclass(frozen=True)
class DecisionRequest:
    """Everything the behaviour kernel needs to simulate one choice."""

    candidates: Sequence[Candidate]
    difficulty: str = "medium"
    n_joint: int = 1
    blacklist: frozenset[Subgoal] = frozenset()
    has_stale_facts: bool = False
    quality_bonus: float = 1.0  # e.g. fine-tuning or symbolic augmentation

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError("DecisionRequest requires at least one candidate")
        if self.n_joint < 1:
            raise ValueError(f"n_joint must be >= 1: {self.n_joint}")


@dataclass(frozen=True)
class DecisionOutcome:
    """Raw kernel output, later wrapped into a :class:`Decision`."""

    candidate: Candidate
    fault: FaultKind | None
    retries: int
    p_correct: float


#: Integer code of a hallucinated / stale-memory candidate in the
#: vectorized fault-code column (see ``envs/candidates.py: FAULT_CODES``).
_HALLUCINATION_CODE = FAULT_CODES[FaultKind.HALLUCINATION]
_STALE_CODE = FAULT_CODES[FaultKind.STALE_MEMORY]


class _Scoreboard:
    """Cached pure analysis ("scores") of one candidate set.

    Everything a decision consults that does not touch the RNG, computed
    as one numpy pass over the candidate tuple's feature columns
    (:func:`repro.envs.candidates.candidate_features`): the clean subset,
    the top utility tie group (the only candidates a correct pick can
    return), and the per-fault candidate pools, all held as index arrays
    into the candidate tuple in seed enumeration order — boolean masks
    and ``np.flatnonzero`` preserve position order, so the tie-break and
    pool draws stay seed-identical.  A scoreboard is a pure function of
    ``(candidates, blacklist, has_stale_facts)``; the kernel reuses it
    across steps whenever the environment's candidate cache hands back
    the identical candidate tuple, so unchanged candidates keep their
    scores and only changed sets are re-scored.

    This vectorized constructor deliberately *mirrors* — rather than
    calls — the seed helpers on :class:`BehaviorKernel`
    (``_clean_candidates``, the tie computation in ``_best_choice``,
    ``_available_faults``).  The implementations stay independent so the
    golden equivalence suite compares two genuinely separate scoring
    paths: a bug edited into either alone fails
    ``tests/core/test_hotpath_equivalence.py`` (and the direct pool
    comparison in ``tests/llm/test_behavior.py``) instead of silently
    shifting both paths together.  Change them in lockstep.
    """

    __slots__ = (
        "candidates",
        "clean",
        "best_index",
        "ties",
        "complexity",
        "_features",
        "_blacklisted",
        "_has_stale",
        "_fault_state",
    )

    def __init__(self, request: "DecisionRequest") -> None:
        candidates = request.candidates
        self.candidates = candidates
        features = candidate_features(candidates)
        no_fault = features.fault_codes == FAULT_NONE
        blacklist = request.blacklist
        if blacklist:
            blacklisted = np.fromiter(
                (subgoal in blacklist for subgoal in features.subgoals),
                dtype=bool,
                count=len(candidates),
            )
            clean = np.flatnonzero(features.feasible & no_fault & ~blacklisted)
        else:
            blacklisted = None
            clean = np.flatnonzero(features.feasible & no_fault)
        self.clean: np.ndarray = clean
        pool = clean if clean.size else np.arange(len(candidates))
        pool_utilities = features.utilities[pool]
        best_utility = pool_utilities.max()
        self.ties: np.ndarray = pool[pool_utilities >= best_utility - 1e-9]
        self.complexity: float = min(1.0, clean.size / 4.0)
        self.best_index = int(self.ties[0])
        # Fault pools are built lazily: roughly half the scoreboards only
        # ever serve correct picks, and those never consult the pools.
        self._features = features
        self._blacklisted = blacklisted
        self._has_stale = request.has_stale_facts
        self._fault_state: (
            tuple[tuple[FaultKind, ...], np.ndarray | None, dict] | None
        ) = None

    def fault_state(
        self,
    ) -> tuple[tuple[FaultKind, ...], np.ndarray | None, dict[FaultKind, np.ndarray]]:
        """``(kinds, cdf, pools)`` for the fault draw, built on first use.

        ``cdf`` replicates ``rng.choice(len(kinds), p=weights)`` exactly:
        ``Generator.choice`` normalizes ``p`` into a cumulative table and
        inverts one uniform draw via right-bisection, so caching the same
        table and calling ``cdf.searchsorted(rng.random(), side="right")``
        consumes the identical stream and returns the identical kind
        (asserted against ``rng.choice`` in ``tests/llm/test_behavior.py``).
        """
        state = self._fault_state
        if state is not None:
            return state
        features = self._features
        utilities = features.utilities
        no_fault = features.fault_codes == FAULT_NONE
        clean = self.clean
        available: dict[FaultKind, np.ndarray] = {}
        suboptimal = clean[utilities[clean] < utilities[self.best_index]]
        if suboptimal.size:
            available[FaultKind.SUBOPTIMAL] = suboptimal
        infeasible = np.flatnonzero(~features.feasible & no_fault)
        if infeasible.size:
            available[FaultKind.INFEASIBLE] = infeasible
        hallucinated = np.flatnonzero(features.fault_codes == _HALLUCINATION_CODE)
        if hallucinated.size:
            available[FaultKind.HALLUCINATION] = hallucinated
        if self._blacklisted is not None:
            repeated = np.flatnonzero(self._blacklisted)
            if repeated.size:
                available[FaultKind.REPEATED] = repeated
        if self._has_stale:
            stale = np.flatnonzero(features.fault_codes == _STALE_CODE)
            available[FaultKind.STALE_MEMORY] = (
                stale if stale.size else np.array([self.best_index])
            )
        kinds = tuple(available)
        if kinds:
            weights = np.array([FAULT_WEIGHTS[kind] for kind in kinds], dtype=float)
            weights /= weights.sum()
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
        else:
            cdf = None
        state = (kinds, cdf, available)
        self._fault_state = state
        return state


#: Scoreboards kept per kernel.  Decisions alternate between at most a
#: few candidate sets per agent (the current enumeration, plus the
#: shrinking pools of a multi-step plan), so a handful of entries covers
#: the reuse while bounding memory on long sweeps.
_SCOREBOARD_CAPACITY = 8


@dataclass
class BehaviorKernel:
    """Stateless selection logic parameterized by capability numbers.

    Separated from :class:`~repro.llm.simulated.SimulatedLLM` so it can be
    unit- and property-tested without latency modeling.

    On the optimized hot path the kernel memoizes a :class:`_Scoreboard`
    per candidate set (identity-keyed: a hit requires the very same
    candidate sequence object, which the environment candidate cache
    returns while beliefs are unchanged).  On the reference path every
    helper recomputes from scratch, exactly like the seed.  Scoreboards
    consume no randomness, so both paths draw identically from the RNG.
    """

    reasoning: float
    format_compliance: float
    context_focus: "callable[[int], float]" = field(repr=False, default=lambda _t: 1.0)
    _fast: bool = field(default=False, repr=False, compare=False)
    _scoreboards: OrderedDict = field(
        default_factory=OrderedDict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._fast = current().hotpath

    def _scoreboard(self, request: DecisionRequest) -> _Scoreboard | None:
        """The cached scoreboard on the fast path, ``None`` otherwise.

        Only tuple candidate sequences are scored eagerly: those come
        from the environment candidate cache and recur across steps, so
        the one-time pool construction amortizes.  One-off lists (e.g.
        the shrinking pools of a multi-step plan) take the seed's lazy
        path instead — a scoreboard for them would do strictly more work
        than the seed on the common no-fault branch and evict useful
        entries from the LRU.
        """
        if not self._fast or type(request.candidates) is not tuple:
            return None
        key = (id(request.candidates), request.blacklist, request.has_stale_facts)
        entry = self._scoreboards.get(key)
        if entry is not None and entry[0] is request.candidates:
            self._scoreboards.move_to_end(key)
            return entry[1]
        board = _Scoreboard(request)
        # The entry pins the candidate sequence, so its id cannot be
        # recycled while the key is alive.
        self._scoreboards[key] = (request.candidates, board)
        if len(self._scoreboards) > _SCOREBOARD_CAPACITY:
            self._scoreboards.popitem(last=False)
        return board

    def probability_correct(self, request: DecisionRequest, prompt_tokens: int) -> float:
        factor = DIFFICULTY_FACTORS.get(request.difficulty)
        if factor is None:
            raise ValueError(f"unknown difficulty {request.difficulty!r}")
        coordination = COORDINATION_PENALTY ** (request.n_joint - 1)
        focus = self.context_focus(prompt_tokens)
        p_value = self.reasoning * focus * coordination * factor * request.quality_bonus
        return float(min(1.0, max(0.0, p_value)))

    def decide(
        self,
        request: DecisionRequest,
        prompt_tokens: int,
        rng: np.random.Generator,
    ) -> DecisionOutcome:
        """Simulate one decision, including format-retry behaviour.

        The raw error rate is scaled by how contested the choice is: with
        a single obvious option even weak models rarely err, while rich
        candidate sets expose the full reasoning gap (the paper's
        "exponential growth of action interdependencies").
        """
        retries = self._sample_format_retries(rng)
        p_correct = self.probability_correct(request, prompt_tokens)
        board = self._scoreboard(request)
        if board is not None:
            complexity = board.complexity
        else:
            complexity = min(1.0, len(self._clean_candidates(request)) / 4.0)
        p_correct = 1.0 - (1.0 - p_correct) * complexity
        if retries >= MAX_FORMAT_RETRIES:
            # Unparseable after retries: degrade to a forced arbitrary pick.
            candidate = self._fallback_choice(request, rng)
            return DecisionOutcome(
                candidate=candidate,
                fault=FaultKind.FORMAT,
                retries=retries,
                p_correct=p_correct,
            )
        if rng.random() < p_correct:
            return DecisionOutcome(
                candidate=self._best_choice(request, rng, board),
                fault=None,
                retries=retries,
                p_correct=p_correct,
            )
        fault, candidate = self._faulty_choice(request, rng, board)
        return DecisionOutcome(
            candidate=candidate, fault=fault, retries=retries, p_correct=p_correct
        )

    def _sample_format_retries(self, rng: np.random.Generator) -> int:
        retries = 0
        while retries < MAX_FORMAT_RETRIES and rng.random() > self.format_compliance:
            retries += 1
        return retries

    def _clean_candidates(self, request: DecisionRequest) -> list[Candidate]:
        return [
            candidate
            for candidate in request.candidates
            if candidate.feasible
            and candidate.fault is None
            and candidate.subgoal not in request.blacklist
        ]

    def _best_choice(
        self,
        request: DecisionRequest,
        rng: np.random.Generator | None = None,
        board: _Scoreboard | None = None,
    ) -> Candidate:
        """Highest-utility clean candidate, breaking ties randomly.

        Random tie-breaking matters: several agents planning over
        identical candidate sets must decorrelate (sampling temperature in
        the real systems), or they all chase the same object every step.
        """
        if board is None:
            board = self._scoreboard(request)
        if board is not None:
            ties = board.ties
            if rng is None or ties.size == 1:
                return request.candidates[board.best_index]
            return request.candidates[int(ties[int(rng.integers(ties.size))])]
        clean = self._clean_candidates(request)
        pool = clean or list(request.candidates)
        best_utility = max(candidate.utility for candidate in pool)
        ties = [
            candidate
            for candidate in pool
            if candidate.utility >= best_utility - 1e-9
        ]
        if rng is None or len(ties) == 1:
            return ties[0]
        return ties[int(rng.integers(len(ties)))]

    def _fallback_choice(
        self, request: DecisionRequest, rng: np.random.Generator
    ) -> Candidate:
        index = int(rng.integers(len(request.candidates)))
        return request.candidates[index]

    def _available_faults(
        self, request: DecisionRequest
    ) -> dict[FaultKind, list[Candidate]]:
        """Map each injectable fault kind to the candidates realizing it."""
        clean = self._clean_candidates(request)
        best = self._best_choice(request)
        available: dict[FaultKind, list[Candidate]] = {}

        suboptimal = [
            candidate for candidate in clean if candidate.utility < best.utility
        ]
        if suboptimal:
            available[FaultKind.SUBOPTIMAL] = suboptimal
        infeasible = [
            candidate
            for candidate in request.candidates
            if not candidate.feasible and candidate.fault is None
        ]
        if infeasible:
            available[FaultKind.INFEASIBLE] = infeasible
        hallucinated = [
            candidate
            for candidate in request.candidates
            if candidate.fault is FaultKind.HALLUCINATION
        ]
        if hallucinated:
            available[FaultKind.HALLUCINATION] = hallucinated
        repeated = [
            candidate
            for candidate in request.candidates
            if candidate.subgoal in request.blacklist
        ]
        if repeated:
            available[FaultKind.REPEATED] = repeated
        if request.has_stale_facts:
            stale = [
                candidate
                for candidate in request.candidates
                if candidate.fault is FaultKind.STALE_MEMORY
            ]
            available[FaultKind.STALE_MEMORY] = stale or [best]
        return available

    def _faulty_choice(
        self,
        request: DecisionRequest,
        rng: np.random.Generator,
        board: _Scoreboard | None = None,
    ) -> tuple[FaultKind, Candidate]:
        if board is None:
            board = self._scoreboard(request)
        if board is not None:
            kinds, cdf, available = board.fault_state()
            if not kinds:
                # Nothing wrong is expressible (e.g. a single obvious
                # option): the model simply succeeds.
                return (None, self._best_choice(request, rng, board))  # type: ignore[return-value]
            # Stream-identical inversion of ``rng.choice(len(kinds),
            # p=weights)`` — see ``_Scoreboard.fault_state``.
            kind = kinds[int(cdf.searchsorted(rng.random(), side="right"))]
            pool = available[kind]
            index = int(pool[int(rng.integers(pool.size))])
            return kind, request.candidates[index]
        available = self._available_faults(request)
        if not available:
            # Nothing wrong is expressible (e.g. a single obvious option):
            # the model simply succeeds.
            return (None, self._best_choice(request, rng))  # type: ignore[return-value]
        kinds = list(available)
        weights = np.array([FAULT_WEIGHTS[kind] for kind in kinds], dtype=float)
        weights /= weights.sum()
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        pool = available[kind]
        candidate = pool[int(rng.integers(len(pool)))]
        return kind, candidate
