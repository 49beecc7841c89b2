"""Detector modes: draw-accounting parity and byte-identity cases.

The vector detector batches the loop detector's per-fact draws into array
calls.  Its contract (docs/performance.md, phase 4) is the *accounting
rule*: for ``n`` ground facts of which ``m`` pass recall and ``k`` fire
their mislabel draw, BOTH modes consume

- ``n`` recall uniforms,
- ``m`` mislabel uniforms (only when a distractor vocabulary exists), and
- ``k`` integer draws,

never skipping or inventing a draw category.  Because the vector mode
reorders the stream (all recall uniforms first), the *realized* ``m`` and
``k`` differ per seed under noisy profiles — the documented byte-identity
waiver — so the tests assert the rule itself, not per-seed total
equality.  Whenever no draw can change an outcome (perfect detectors) or
a whole category vanishes (no distractors), the modes must agree exactly:
same facts AND same stream consumption.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import OptimizationConfig
from repro.core.settings import DETECTOR_MODES, RunSettings, bind, current
from repro.core.types import Fact
from repro.perception.detector import detect
from repro.perception.models import PerceptionProfile, get_perception

VECTOR = RunSettings(detector="vector")


def facts(n=20):
    return [Fact(f"obj_{i}", "located_in", "room_a", step=1) for i in range(n)]


NOISY = PerceptionProfile(
    name="noisy", latency_s=0.1, recall=0.7, mislabel_rate=0.4, modality="rgb"
)

#: Distractors that never collide with any ground value, so every fired
#: mislabel draw is observable as a corrupted fact (``k == mislabeled``).
DISTRACTORS = ["room_x", "room_y"]


class CountingRNG:
    """Proxy generator that tallies uniform and integer draw counts.

    Scalar calls count 1; array calls count their size — so the tally
    measures *stream consumption*, which is what the accounting rule is
    about, independent of how the draws are batched.
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
    @pytest.mark.parametrize("mode", DETECTOR_MODES)
    def test_noisy_with_distractors_follows_rule(self, mode):
        for seed in range(300):
            rng = CountingRNG(seed)
            ground = facts(20)
            result = detect(ground, NOISY, rng, DISTRACTORS, mode=mode)
            n = len(ground)
            m = n - result.missed
            # n recall uniforms + m mislabel uniforms.
            assert rng.uniforms == n + m, (mode, seed)
            # One integer draw per fired mislabel; distractors never
            # equal ground values, so every fired draw shows up as a
            # corrupted fact.
            assert rng.ints == result.mislabeled, (mode, seed)
            assert len(result.facts) + result.missed == n

    @pytest.mark.parametrize("mode", DETECTOR_MODES)
    def test_noisy_without_distractors_follows_rule(self, mode):
        for seed in range(100):
            rng = CountingRNG(seed)
            ground = facts(20)
            result = detect(ground, NOISY, rng, None, mode=mode)
            # The mislabel category vanishes without a vocabulary.
            assert rng.uniforms == len(ground)
            assert rng.ints == 0
            assert result.mislabeled == 0

    def test_no_distractor_outcomes_byte_identical(self):
        """With no mislabel category, reordering is unobservable.

        The recall uniforms occupy the same stream positions in both
        modes, so facts AND counts must agree exactly per seed.
        """
        for seed in range(100):
            ground = facts(20)
            loop = detect(
                ground, NOISY, np.random.default_rng(seed), None, mode="loop"
            )
            vector = detect(
                ground, NOISY, np.random.default_rng(seed), None, mode="vector"
            )
            assert loop == vector, seed

    def test_perfect_detector_identical_facts_and_totals(self):
        symbolic = get_perception("symbolic")
        for distractors in (None, DISTRACTORS):
            counts = {}
            for mode in DETECTOR_MODES:
                rng = CountingRNG(7)
                ground = facts(20)
                result = detect(ground, symbolic, rng, distractors, mode=mode)
                assert tuple(result.facts) == tuple(ground)
                assert result.missed == 0 and result.mislabeled == 0
                counts[mode] = (rng.uniforms, rng.ints)
            assert counts["loop"] == counts["vector"], distractors

    @pytest.mark.parametrize("mode", DETECTOR_MODES)
    def test_empty_input_draws_nothing(self, mode):
        rng = CountingRNG(0)
        result = detect([], NOISY, rng, DISTRACTORS, mode=mode)
        assert result.facts == ()
        assert result.missed == 0 and result.mislabeled == 0
        assert rng.uniforms == 0 and rng.ints == 0

    def test_vector_mislabel_keeps_subject_and_step(self):
        sloppy = PerceptionProfile(
            name="sloppy", latency_s=0.1, recall=1.0, mislabel_rate=0.95, modality="rgb"
        )
        result = detect(
            facts(10), sloppy, np.random.default_rng(3), ["room_z"], mode="vector"
        )
        assert result.mislabeled > 0
        for fact in result.facts:
            assert fact.subject.startswith("obj_")
            assert fact.step == 1
            assert fact.value in ("room_a", "room_z")


class TestModeKnob:
    """The ``detector`` run setting (``REPRO_DETECTOR``) and ``detect(mode=)``."""

    def test_default_is_loop(self, monkeypatch):
        monkeypatch.delenv("REPRO_DETECTOR", raising=False)
        assert RunSettings().detector == "loop"
        assert current().detector == "loop"

    def test_unknown_mode_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            RunSettings(detector="simd")
        monkeypatch.setenv("REPRO_DETECTOR", "simd")
        with pytest.raises(ValueError, match="REPRO_DETECTOR"):
            RunSettings.from_env()

    def test_override_restores_previous(self):
        """A binding overrides the settings in scope and restores on exit."""
        before = current()
        with bind(VECTOR):
            assert current().detector == "vector"
        assert current() == before

    def test_explicit_argument_wins_over_process_mode(self):
        """``mode=`` beats the bound settings' detector."""
        ground = facts(20)
        with bind(VECTOR):
            explicit = detect(
                ground, NOISY, np.random.default_rng(5), DISTRACTORS, mode="loop"
            )
        reference = detect(
            ground, NOISY, np.random.default_rng(5), DISTRACTORS, mode="loop"
        )
        assert explicit == reference

    def test_process_mode_applies_when_argument_omitted(self):
        """Without ``mode=``, the bound settings' detector applies."""
        ground = facts(20)
        with bind(VECTOR):
            ambient = detect(ground, NOISY, np.random.default_rng(5), DISTRACTORS)
        explicit = detect(
            ground, NOISY, np.random.default_rng(5), DISTRACTORS, mode="vector"
        )
        assert ambient == explicit


class TestSensingCapture:
    def test_module_captures_mode_at_construction(self, context):
        """Episode-static capture: the mode is fixed when the module is
        built, so a later binding cannot change detector behaviour (and
        with it the rng stream) between frames."""
        from repro.core.modules.sensing import SensingModule

        with bind(VECTOR):
            module = SensingModule(context, model="mask-rcnn")
        assert module.detector_mode == "vector"
        with bind(RunSettings()):
            default = SensingModule(context, model="mask-rcnn")
            assert module.detector_mode == "vector"
        assert default.detector_mode == "loop"


class TestConfigPin:
    def test_config_values_mirror_detector_modes(self):
        """The config pin accepts exactly the run settings' modes."""
        for mode in DETECTOR_MODES:
            OptimizationConfig(detector_mode=mode)  # must validate
        OptimizationConfig(detector_mode="")  # unset: follow the run settings
        with pytest.raises(ValueError):
            OptimizationConfig(detector_mode="simd")
