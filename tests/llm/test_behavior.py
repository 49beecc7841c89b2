"""Tests for the decision-quality kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import FaultKind
from repro.core.types import Candidate, Subgoal
from repro.llm.behavior import (
    BehaviorKernel,
    COORDINATION_PENALTY,
    DecisionRequest,
    MAX_FORMAT_RETRIES,
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


class TestScoreboardEquivalence:
    """The numpy scoreboard reproduces the scalar pools byte for byte.

    The scoreboard path engages only for tuple candidate sequences (the
    env cache's stable tuples); one-off lists take the scalar helpers.
    Same seed, same request => identical
    candidate, fault, retries, and p_correct, across blacklists, stale
    facts, and fault-rich candidate pools.
    """

    def _rich_candidates(self):
        return candidates_basic() + [
            Candidate(subgoal=Subgoal("stale", target="room_b"), utility=0.4,
                      fault=FaultKind.STALE_MEMORY),
            Candidate(subgoal=Subgoal("tied", target="box_1"), utility=1.0),
            Candidate(subgoal=Subgoal("tied2", target="box_2"), utility=1.0),
        ]

    def _requests(self):
        pool = self._rich_candidates()
        blacklist = frozenset({Subgoal("tied", target="box_1")})
        for has_stale in (False, True):
            for bl in (frozenset(), blacklist):
                yield dict(difficulty="hard", n_joint=3, blacklist=bl,
                           has_stale_facts=has_stale), pool

    def test_scoreboard_matches_scalar_pools(self):
        """Tuple candidates (scoreboard) decide exactly like one-off lists
        (the scalar helpers)."""
        for kwargs, pool in self._requests():
            for seed in range(150):
                fast = kernel(reasoning=0.4, compliance=0.9).decide(
                    DecisionRequest(candidates=tuple(pool), **kwargs),
                    2000,
                    np.random.default_rng(seed),
                )
                slow = kernel(reasoning=0.4, compliance=0.9).decide(
                    DecisionRequest(candidates=list(pool), **kwargs),
                    2000,
                    np.random.default_rng(seed),
                )
                assert fast.candidate == slow.candidate, (kwargs, seed)
                assert fast.fault == slow.fault, (kwargs, seed)
                assert fast.retries == slow.retries, (kwargs, seed)
                assert fast.p_correct == slow.p_correct, (kwargs, seed)

    def test_scoreboard_actually_engages(self):
        """Guard against the scoreboard silently disabling itself."""
        k = kernel(reasoning=0.4, compliance=0.9)
        pool = tuple(self._rich_candidates())
        request = DecisionRequest(candidates=pool, difficulty="hard")
        k.decide(request, 2000, np.random.default_rng(0))
        assert k._scoreboard(request) is not None
        one_off = DecisionRequest(candidates=list(pool), difficulty="hard")
        assert k._scoreboard(one_off) is None
