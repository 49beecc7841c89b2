"""Tests for the decision-quality kernel."""

from bisect import bisect_right
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import FaultKind
from repro.core.types import Candidate, Subgoal
from repro.llm.behavior import (
    COORDINATION_PENALTY,
    DIFFICULTY_FACTORS,
    FAULT_WEIGHTS,
    MAX_FORMAT_RETRIES,
    BehaviorKernel,
    DecisionOutcome,
    DecisionRequest,
    _kind_cdf,
    _Scoreboard,
)


def kernel(reasoning=0.9, compliance=0.99, focus=lambda _t: 1.0) -> BehaviorKernel:
    return BehaviorKernel(
        reasoning=reasoning, format_compliance=compliance, context_focus=focus
    )


def candidates_basic():
    return [
        Candidate(subgoal=Subgoal("best"), utility=1.0),
        Candidate(subgoal=Subgoal("ok"), utility=0.5),
        Candidate(subgoal=Subgoal("bad"), utility=0.1),
        Candidate(subgoal=Subgoal("broken"), utility=0.0, feasible=False),
        Candidate(
            subgoal=Subgoal("ghost"),
            utility=0.0,
            feasible=False,
            fault=FaultKind.HALLUCINATION,
        ),
    ]


class TestProbability:
    def test_perfect_conditions(self):
        request = DecisionRequest(candidates=candidates_basic(), difficulty="easy")
        assert kernel(reasoning=1.0).probability_correct(request, 100) == pytest.approx(1.0)

    def test_difficulty_reduces(self):
        k = kernel()
        easy = k.probability_correct(
            DecisionRequest(candidates=candidates_basic(), difficulty="easy"), 100
        )
        hard = k.probability_correct(
            DecisionRequest(candidates=candidates_basic(), difficulty="hard"), 100
        )
        assert hard < easy

    def test_joint_planning_penalty_compounds(self):
        k = kernel()
        solo = k.probability_correct(
            DecisionRequest(candidates=candidates_basic(), n_joint=1), 100
        )
        team = k.probability_correct(
            DecisionRequest(candidates=candidates_basic(), n_joint=6), 100
        )
        assert team == pytest.approx(solo * COORDINATION_PENALTY**5)

    def test_focus_applies(self):
        k = kernel(focus=lambda tokens: 0.5)
        request = DecisionRequest(candidates=candidates_basic())
        assert k.probability_correct(request, 100) == pytest.approx(
            0.9 * 0.5 * 0.965, rel=1e-6
        )

    def test_quality_bonus_capped_at_one(self):
        request = DecisionRequest(candidates=candidates_basic(), quality_bonus=5.0)
        assert kernel().probability_correct(request, 100) == 1.0

    def test_unknown_difficulty_raises(self):
        request = DecisionRequest(candidates=candidates_basic(), difficulty="hard")
        object.__setattr__(request, "difficulty", "weird")
        with pytest.raises(ValueError):
            kernel().probability_correct(request, 100)


class TestDecide:
    def test_perfect_model_picks_best(self, rng):
        request = DecisionRequest(candidates=candidates_basic(), difficulty="easy")
        outcome = kernel(reasoning=1.0, compliance=1.0).decide(request, 100, rng)
        assert outcome.candidate.subgoal.name == "best"
        assert outcome.fault is None
        assert outcome.retries == 0

    def test_blacklist_respected_in_clean_choice(self, rng):
        request = DecisionRequest(
            candidates=candidates_basic(),
            difficulty="easy",
            blacklist=frozenset({Subgoal("best")}),
        )
        outcome = kernel(reasoning=1.0, compliance=1.0).decide(request, 100, rng)
        assert outcome.candidate.subgoal.name == "ok"

    def test_zero_reasoning_always_faults_with_rich_choices(self, rng):
        request = DecisionRequest(candidates=candidates_basic(), difficulty="hard")
        k = kernel(reasoning=0.01, compliance=1.0)
        faults = sum(
            1 for _ in range(100) if k.decide(request, 100, rng).fault is not None
        )
        assert faults > 50

    def test_single_obvious_choice_rarely_faults(self, rng):
        """Error rate scales with decision-space size."""
        lone = [Candidate(subgoal=Subgoal("only"), utility=1.0)]
        request = DecisionRequest(candidates=lone, difficulty="hard")
        k = kernel(reasoning=0.3, compliance=1.0)
        faults = sum(
            1 for _ in range(200) if k.decide(request, 100, rng).fault is not None
        )
        # complexity = 1/4 -> error rate roughly a quarter of the raw rate
        assert faults < 100

    def test_format_failure_after_retries(self, rng):
        request = DecisionRequest(candidates=candidates_basic())
        k = kernel(compliance=0.01)
        outcomes = [k.decide(request, 100, rng) for _ in range(50)]
        format_faults = [o for o in outcomes if o.fault is FaultKind.FORMAT]
        assert format_faults
        assert all(o.retries == MAX_FORMAT_RETRIES for o in format_faults)

    def test_fault_candidates_come_from_available_pools(self, rng):
        request = DecisionRequest(candidates=candidates_basic(), difficulty="hard")
        k = kernel(reasoning=0.05, compliance=1.0)
        for _ in range(100):
            outcome = k.decide(request, 100, rng)
            if outcome.fault is FaultKind.HALLUCINATION:
                assert outcome.candidate.subgoal.name == "ghost"
            elif outcome.fault is FaultKind.INFEASIBLE:
                assert outcome.candidate.subgoal.name == "broken"
            elif outcome.fault is FaultKind.SUBOPTIMAL:
                assert outcome.candidate.utility < 1.0

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            DecisionRequest(candidates=[])

    def test_tie_breaking_spreads_choices(self, rng):
        ties = [
            Candidate(subgoal=Subgoal("a"), utility=0.8),
            Candidate(subgoal=Subgoal("b"), utility=0.8),
            Candidate(subgoal=Subgoal("c"), utility=0.8),
        ]
        request = DecisionRequest(candidates=ties, difficulty="easy")
        k = kernel(reasoning=1.0, compliance=1.0)
        chosen = {k.decide(request, 10, rng).candidate.subgoal.name for _ in range(60)}
        assert len(chosen) == 3


class TestProperties:
    @settings(max_examples=30)
    @given(
        reasoning=st.floats(min_value=0.05, max_value=1.0),
        tokens=st.integers(min_value=0, max_value=10000),
        n_joint=st.integers(min_value=1, max_value=12),
    )
    def test_probability_in_unit_interval(self, reasoning, tokens, n_joint):
        request = DecisionRequest(candidates=candidates_basic(), n_joint=n_joint)
        p = kernel(reasoning=reasoning).probability_correct(request, tokens)
        assert 0.0 <= p <= 1.0

    @settings(max_examples=20)
    @given(seed=st.integers(min_value=0, max_value=10000))
    def test_decide_deterministic_given_rng_state(self, seed):
        request = DecisionRequest(candidates=candidates_basic(), difficulty="medium")
        k = kernel(reasoning=0.7, compliance=0.9)
        a = k.decide(request, 500, np.random.default_rng(seed))
        b = k.decide(request, 500, np.random.default_rng(seed))
        assert a.candidate.subgoal == b.candidate.subgoal
        assert a.fault == b.fault


def reference_pools(request: DecisionRequest):
    """The scalar analysis the scoreboard replaced: ``(clean, ties,
    available)``, walking the candidates once per pool and taking the tie
    group with ``max`` and the ``1e-9`` tolerance."""
    candidates = list(request.candidates)
    clean = [
        candidate
        for candidate in candidates
        if candidate.feasible
        and candidate.fault is None
        and candidate.subgoal not in request.blacklist
    ]
    pool = clean or candidates
    best_utility = max(candidate.utility for candidate in pool)
    ties = [candidate for candidate in pool if candidate.utility >= best_utility - 1e-9]
    best = ties[0]
    available: dict[FaultKind, list[Candidate]] = {}
    suboptimal = [candidate for candidate in clean if candidate.utility < best.utility]
    if suboptimal:
        available[FaultKind.SUBOPTIMAL] = suboptimal
    infeasible = [c for c in candidates if not c.feasible and c.fault is None]
    if infeasible:
        available[FaultKind.INFEASIBLE] = infeasible
    hallucinated = [c for c in candidates if c.fault is FaultKind.HALLUCINATION]
    if hallucinated:
        available[FaultKind.HALLUCINATION] = hallucinated
    repeated = [c for c in candidates if c.subgoal in request.blacklist]
    if repeated:
        available[FaultKind.REPEATED] = repeated
    return clean, ties, available


def reference_decide(
    k: BehaviorKernel,
    request: DecisionRequest,
    prompt_tokens: int,
    rng: np.random.Generator,
) -> DecisionOutcome:
    """The scalar kernel the scoreboard replaced, kept as its oracle: the
    pools above, and the fault kind drawn with
    ``rng.choice(len(kinds), p=weights)``."""
    retries = 0
    while retries < MAX_FORMAT_RETRIES and rng.random() > k.format_compliance:
        retries += 1
    candidates = list(request.candidates)
    clean, ties, available = reference_pools(request)
    p_correct = k.probability_correct(request, prompt_tokens)
    p_correct = 1.0 - (1.0 - p_correct) * min(1.0, len(clean) / 4.0)

    def outcome(candidate, fault):
        return DecisionOutcome(candidate, fault, retries, p_correct)

    def best_choice():
        if len(ties) == 1:
            return ties[0]
        return ties[int(rng.integers(len(ties)))]

    if retries >= MAX_FORMAT_RETRIES:
        return outcome(candidates[int(rng.integers(len(candidates)))], FaultKind.FORMAT)
    if rng.random() < p_correct or not available:
        return outcome(best_choice(), None)
    kinds = list(available)
    weights = np.array([FAULT_WEIGHTS[kind] for kind in kinds], dtype=float)
    weights /= weights.sum()
    kind = kinds[int(rng.choice(len(kinds), p=weights))]
    pool = available[kind]
    return outcome(pool[int(rng.integers(len(pool)))], kind)


def assert_matches_reference(k, candidates, prompt_tokens, seed, **kwargs):
    """On a tuple and on a list, the scoreboard's pools and ``decide``
    equal the reference: the chosen position, fault, retries,
    ``p_correct`` and the generator state after the call."""

    def positions(chosen):
        return [next(i for i, c in enumerate(candidates) if c is pick) for pick in chosen]

    clean, ties, available = reference_pools(
        DecisionRequest(candidates=list(candidates), **kwargs)
    )
    rng = np.random.default_rng(seed)
    expected = reference_decide(
        k, DecisionRequest(candidates=list(candidates), **kwargs), prompt_tokens, rng
    )
    expected_state = rng.bit_generator.state
    for sequence in (tuple, list):
        request = DecisionRequest(candidates=sequence(candidates), **kwargs)
        board = _Scoreboard(request)
        assert positions(board.clean) == positions(clean)
        assert positions(board.ties) == positions(ties)
        assert [(kind, positions(pool)) for kind, pool in board.fault_pools().items()] == [
            (kind, positions(pool)) for kind, pool in available.items()
        ], (sequence, kwargs)
        rng = np.random.default_rng(seed)
        got = k.decide(request, prompt_tokens, rng)
        assert positions([got.candidate]) == positions([expected.candidate]), (sequence, seed)
        assert got.fault is expected.fault, (sequence, kwargs, seed)
        assert got.retries == expected.retries
        assert got.p_correct == expected.p_correct
        assert rng.bit_generator.state == expected_state


#: A small subgoal vocabulary, so repeats and blacklist hits are common.
VOCABULARY = [
    Subgoal(name, target) for name in ("fetch", "explore") for target in ("mug", "box", "")
]
#: Utilities with neighbours inside and just outside the 1e-9 tie tolerance.
UTILITIES = (0.0, 0.25, 0.5, 0.5 + 4e-10, 1.0 - 2e-9, 1.0 - 5e-10, 1.0, 1.0 + 5e-10)
CANDIDATE_SPECS = st.lists(
    st.tuples(
        st.sampled_from(VOCABULARY),
        st.sampled_from(UTILITIES),
        st.booleans(),
        st.one_of(st.none(), st.sampled_from(FaultKind)),
    ),
    min_size=1,
    max_size=40,
)


class TestScoreboardEquivalence:
    """The scoreboard decides exactly like the scalar reference above.

    One scoreboard serves tuples and lists alike; both must match the
    reference draw for draw, across blacklists, ties inside the
    tolerance and fault-rich candidate pools.
    """

    def _rich_candidates(self):
        return candidates_basic() + [
            # Tagged with a kind no pool realizes: neither clean nor drawn.
            Candidate(subgoal=Subgoal("tagged", target="room_b"), utility=0.4,
                      fault=FaultKind.FORMAT),
            Candidate(subgoal=Subgoal("tied", target="box_1"), utility=1.0),
            Candidate(subgoal=Subgoal("tied2", target="box_2"), utility=1.0),
        ]

    def test_scoreboard_matches_scalar_pools(self):
        pool = self._rich_candidates()
        blacklist = frozenset({Subgoal("tied", target="box_1")})
        k = kernel(reasoning=0.4, compliance=0.9)
        for bl in (frozenset(), blacklist):
            for seed in range(150):
                assert_matches_reference(
                    k, pool, 2000, seed, difficulty="hard", n_joint=3, blacklist=bl
                )

    @settings(max_examples=400, deadline=None)
    @given(
        specs=CANDIDATE_SPECS,
        blacklist=st.frozensets(st.sampled_from(VOCABULARY), max_size=3),
        n_joint=st.integers(min_value=1, max_value=12),
        difficulty=st.sampled_from(sorted(DIFFICULTY_FACTORS)),
        reasoning=st.floats(min_value=0.0, max_value=1.0),
        compliance=st.sampled_from([1.0, 0.9, 0.5, 0.05]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_requests_match_reference(
        self, specs, blacklist, n_joint, difficulty, reasoning, compliance, seed
    ):
        candidates = [
            Candidate(subgoal=subgoal, utility=utility, feasible=feasible, fault=fault)
            for subgoal, utility, feasible, fault in specs
        ]
        k = kernel(
            reasoning=reasoning,
            compliance=compliance,
            focus=lambda tokens: 1.0 / (1.0 + tokens / 4000.0),
        )
        assert_matches_reference(
            k, candidates, 1500, seed, difficulty=difficulty, n_joint=n_joint,
            blacklist=blacklist,
        )

    def test_kind_table_inverts_rng_choice(self):
        """Every non-empty kinds subset x 200 seeds: the cumulative-table
        draw returns what ``rng.choice`` returns and leaves the generator
        in the same state."""
        every_kind = tuple(FAULT_WEIGHTS)
        for size in range(1, len(every_kind) + 1):
            for kinds in combinations(every_kind, size):
                weights = np.array([FAULT_WEIGHTS[kind] for kind in kinds], dtype=float)
                weights /= weights.sum()
                table = _kind_cdf(kinds)
                for seed in range(200):
                    ours = np.random.default_rng(seed)
                    theirs = np.random.default_rng(seed)
                    assert bisect_right(table, ours.random()) == int(
                        theirs.choice(len(kinds), p=weights)
                    ), (kinds, seed)
                    assert ours.bit_generator.state == theirs.bit_generator.state
