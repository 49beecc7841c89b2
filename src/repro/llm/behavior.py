"""The decision-quality kernel of the simulated LLM.

This module is the behavioural core of the simulated LLM
(docs/architecture.md): instead of sampling text from a transformer, a
decision call selects among enumerated
:class:`~repro.core.types.Candidate` subgoals.
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

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from repro.core.errors import FaultKind
from repro.core.types import Candidate, Subgoal

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


class _Scoreboard:
    """The analysis of one decision's candidates that takes no randomness.

    Built once per decision, for tuple and list candidates alike, and
    never reused:

    - ``clean``: the feasible, fault-free, non-blacklisted candidates;
    - ``ties``: the candidates of the pool (``clean``, or every
      candidate when none is clean) within ``1e-9`` of its best utility
      — the only candidates a correct pick can return;
    - ``complexity``: how contested the choice is, ``min(1, |clean| / 4)``.

    Every list keeps enumeration order, so a draw of index ``i`` picks
    the same candidate whatever the sequence type.
    """

    __slots__ = ("request", "clean", "ties", "complexity")

    def __init__(self, request: DecisionRequest) -> None:
        self.request = request
        candidates = request.candidates
        blacklist = request.blacklist
        # ``in`` hashes the subgoal even when the set is empty: skip it then.
        if blacklist:
            clean = [
                candidate
                for candidate in candidates
                if candidate.feasible
                and candidate.fault is None
                and candidate.subgoal not in blacklist
            ]
        else:
            clean = [
                candidate
                for candidate in candidates
                if candidate.feasible and candidate.fault is None
            ]
        pool = clean or candidates
        cutoff = max([candidate.utility for candidate in pool]) - 1e-9
        self.clean = clean
        self.ties = [candidate for candidate in pool if candidate.utility >= cutoff]
        self.complexity = min(1.0, len(clean) / 4.0)

    def fault_pools(self) -> dict[FaultKind, list[Candidate]]:
        """Map each injectable fault kind to the candidates realizing it.

        Built only when a decision errs, in :data:`FAULT_WEIGHTS` order;
        a kind no candidate realizes is absent.
        """
        request = self.request
        candidates = request.candidates
        pools: dict[FaultKind, list[Candidate]] = {}
        best_utility = self.ties[0].utility
        suboptimal = [
            candidate for candidate in self.clean if candidate.utility < best_utility
        ]
        if suboptimal:
            pools[FaultKind.SUBOPTIMAL] = suboptimal
        infeasible = [
            candidate
            for candidate in candidates
            if not candidate.feasible and candidate.fault is None
        ]
        if infeasible:
            pools[FaultKind.INFEASIBLE] = infeasible
        hallucinated = [
            candidate
            for candidate in candidates
            if candidate.fault is FaultKind.HALLUCINATION
        ]
        if hallucinated:
            pools[FaultKind.HALLUCINATION] = hallucinated
        if request.blacklist:
            repeated = [
                candidate
                for candidate in candidates
                if candidate.subgoal in request.blacklist
            ]
            if repeated:
                pools[FaultKind.REPEATED] = repeated
        return pools


@lru_cache(maxsize=None)
def _kind_cdf(kinds: tuple[FaultKind, ...]) -> tuple[float, ...]:
    """The cumulative table ``rng.choice(len(kinds), p=weights)`` inverts.

    ``Generator.choice`` normalizes ``p``, takes its cumulative sum,
    divides by the last entry and right-bisects one ``rng.random()``
    draw into it.  The same arithmetic here makes
    ``bisect_right(table, rng.random())`` consume the same draw and
    return the same index.  One table per distinct kinds tuple: at most
    15.
    """
    weights = np.array([FAULT_WEIGHTS[kind] for kind in kinds], dtype=float)
    weights /= weights.sum()
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


@dataclass
class BehaviorKernel:
    """Stateless selection logic parameterized by capability numbers.

    Separated from :class:`~repro.llm.simulated.SimulatedLLM` so it can be
    unit- and property-tested without latency modeling.  Each decision
    builds one :class:`_Scoreboard`, which draws nothing, and then makes
    its draws in a fixed order: the format retries, the correct-or-not
    draw, then the tie-break, or the fault kind and the pick from its
    pool.
    """

    reasoning: float
    format_compliance: float
    context_focus: Callable[[int], float] = field(repr=False, default=lambda _t: 1.0)

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
        board = _Scoreboard(request)
        p_correct = 1.0 - (1.0 - p_correct) * board.complexity
        if retries >= MAX_FORMAT_RETRIES:
            # Unparseable after retries: degrade to a forced arbitrary pick.
            candidates = request.candidates
            fault = FaultKind.FORMAT
            candidate = candidates[int(rng.integers(len(candidates)))]
        elif rng.random() < p_correct:
            fault, candidate = None, _best_choice(board, rng)
        else:
            fault, candidate = _faulty_choice(board, rng)
        return DecisionOutcome(
            candidate=candidate, fault=fault, retries=retries, p_correct=p_correct
        )

    def _sample_format_retries(self, rng: np.random.Generator) -> int:
        retries = 0
        while retries < MAX_FORMAT_RETRIES and rng.random() > self.format_compliance:
            retries += 1
        return retries


def _best_choice(board: _Scoreboard, rng: np.random.Generator) -> Candidate:
    """A top-utility candidate, breaking ties randomly.

    Random tie-breaking matters: several agents planning over identical
    candidate sets must decorrelate (sampling temperature in the real
    systems), or they all chase the same object every step.
    """
    ties = board.ties
    if len(ties) == 1:
        return ties[0]
    return ties[int(rng.integers(len(ties)))]


def _faulty_choice(
    board: _Scoreboard, rng: np.random.Generator
) -> tuple[FaultKind | None, Candidate]:
    """A fault kind drawn by weight, then a candidate from its pool."""
    pools = board.fault_pools()
    if not pools:
        # Nothing wrong is expressible (e.g. a single obvious option):
        # the model simply succeeds.
        return None, _best_choice(board, rng)
    kinds = tuple(pools)
    kind = kinds[bisect_right(_kind_cdf(kinds), rng.random())]
    pool = pools[kind]
    return kind, pool[int(rng.integers(len(pool)))]
