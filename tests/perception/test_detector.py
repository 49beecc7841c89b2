"""The detector's draw accounting.

The detector's random draws are part of the episode's rng stream, so the
number of draws it consumes is part of its contract: for ``n`` ground
facts of which ``m`` pass recall and ``k`` fire their mislabel draw, a
pass consumes

- ``n`` recall uniforms,
- ``m`` mislabel uniforms (only when a distractor vocabulary exists), and
- ``k`` integer draws,

never skipping or inventing a draw category.  A perfect detector runs
the same loop, so its budget is fixed: every fact passes and none is
mislabeled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.types import Fact
from repro.perception.detector import detect
from repro.perception.models import PerceptionProfile, get_perception


def facts(n=20):
    return [Fact(f"obj_{i}", "located_in", "room_a", step=1) for i in range(n)]


NOISY = PerceptionProfile(name="noisy", latency_s=0.1, recall=0.7, mislabel_rate=0.4)

#: Distractors that never collide with any ground value, so every fired
#: mislabel draw is observable as a corrupted fact (``k == mislabeled``).
DISTRACTORS = ["room_x", "room_y"]


def missed_and_mislabeled(ground, reported) -> tuple[int, int]:
    """Facts the pass dropped, and reported facts whose value differs from
    the ground truth (ground subjects are distinct)."""
    truth = {fact.subject: fact.value for fact in ground}
    mislabeled = sum(fact.value != truth[fact.subject] for fact in reported)
    return len(ground) - len(reported), mislabeled


class CountingRNG:
    """Proxy generator that tallies uniform and integer draw counts.

    Scalar calls count 1; array calls count their size — so the tally
    measures *stream consumption*, independent of how the draws are
    batched.
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.uniforms = 0
        self.ints = 0

    def random(self, size=None):
        self.uniforms += 1 if size is None else int(size)
        return self._rng.random() if size is None else self._rng.random(size)

    def integers(self, *args, **kwargs):
        size = kwargs.get("size")
        self.ints += 1 if size is None else int(size)
        return self._rng.integers(*args, **kwargs)


class TestDrawAccountingRule:
    def test_noisy_with_distractors_follows_rule(self):
        for seed in range(300):
            rng = CountingRNG(seed)
            ground = facts(20)
            reported = detect(ground, NOISY, rng, DISTRACTORS)
            n = len(ground)
            missed, mislabeled = missed_and_mislabeled(ground, reported)
            # n recall uniforms + m mislabel uniforms.
            assert rng.uniforms == n + (n - missed), seed
            # One integer draw per fired mislabel; distractors never
            # equal ground values, so every fired draw shows up as a
            # corrupted fact.
            assert rng.ints == mislabeled, seed

    def test_noisy_without_distractors_follows_rule(self):
        for seed in range(100):
            rng = CountingRNG(seed)
            ground = facts(20)
            reported = detect(ground, NOISY, rng, None)
            # The mislabel category vanishes without a vocabulary.
            assert rng.uniforms == len(ground)
            assert rng.ints == 0
            assert missed_and_mislabeled(ground, reported)[1] == 0

    @pytest.mark.parametrize(
        "distractors", [None, DISTRACTORS], ids=["no-vocabulary", "vocabulary"]
    )
    def test_perfect_detector_budget(self, distractors):
        """Every fact passes and none is mislabeled, so the budget is
        one recall uniform per fact, plus one mislabel uniform per fact
        when a vocabulary exists."""
        rng = CountingRNG(7)
        ground = facts(20)
        assert detect(ground, get_perception("symbolic"), rng, distractors) == tuple(ground)
        per_fact = 2 if distractors else 1
        assert (rng.uniforms, rng.ints) == (per_fact * len(ground), 0)

    def test_empty_input_draws_nothing(self):
        rng = CountingRNG(0)
        assert detect([], NOISY, rng, DISTRACTORS) == ()
        assert rng.uniforms == 0 and rng.ints == 0
