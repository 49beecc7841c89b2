"""Tests for cost models and grasp simulation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.planners.costmodel import ComputeCost, ZERO_COST
from repro.planners.grasp import GRASP_ATTEMPT_ACTUATION_S, plan_grasp


class TestComputeCost:
    def test_zero_cost(self):
        assert ZERO_COST.seconds() == 0.0

    def test_addition(self):
        a = ComputeCost(astar_expansions=10, rrt_iterations=5)
        b = ComputeCost(astar_expansions=1, grasp_evaluations=2)
        total = a + b
        assert total.astar_expansions == 11
        assert total.rrt_iterations == 5
        assert total.grasp_evaluations == 2

    def test_seconds_positive_for_work(self):
        assert ComputeCost(rrt_iterations=100).seconds() > 0

    @given(
        expansions=st.integers(min_value=0, max_value=10**6),
        iterations=st.integers(min_value=0, max_value=10**5),
    )
    def test_seconds_monotone(self, expansions, iterations):
        smaller = ComputeCost(astar_expansions=expansions, rrt_iterations=iterations)
        bigger = ComputeCost(
            astar_expansions=expansions + 1, rrt_iterations=iterations
        )
        assert bigger.seconds() >= smaller.seconds()


class TestGrasp:
    def test_certain_grasp_succeeds_first_try(self, rng):
        result = plan_grasp(rng, success_probability=1.0)
        assert result.success
        # One attempt: one arm motion.
        assert result.actuation_seconds == pytest.approx(GRASP_ATTEMPT_ACTUATION_S)

    def test_impossible_probability_rejected(self, rng):
        with pytest.raises(ValueError):
            plan_grasp(rng, success_probability=0.0)
        with pytest.raises(ValueError):
            plan_grasp(rng, max_attempts=0)

    def test_attempts_bounded(self, rng):
        for _ in range(50):
            result = plan_grasp(rng, success_probability=0.3, max_attempts=3)
            # Each attempt costs one arm motion; a failure used them all.
            attempts = round(result.actuation_seconds / GRASP_ATTEMPT_ACTUATION_S)
            assert 1 <= attempts <= 3
            assert result.success or attempts == 3

    def test_failure_possible_with_low_probability(self):
        rng = np.random.default_rng(0)
        results = [plan_grasp(rng, success_probability=0.05, max_attempts=2) for _ in range(50)]
        assert any(not r.success for r in results)

    def test_cost_scales_with_attempts(self, rng):
        result = plan_grasp(rng, success_probability=1.0)
        assert result.cost.grasp_evaluations > 0
