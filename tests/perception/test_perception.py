"""Tests for the perception substrate."""

import numpy as np
import pytest
from conftest import small_env
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import ModuleName
from repro.core.errors import UnknownModelError
from repro.core.modules.sensing import SensingModule
from repro.core.types import Fact
from repro.perception.detector import detect
from repro.perception.models import PerceptionProfile, get_perception


def facts(n=10):
    return [Fact(f"obj_{i}", "located_in", "room_a", step=1) for i in range(n)]


class TestRegistry:
    def test_expected_profiles(self):
        for expected in ("vit", "mineclip", "mask-rcnn", "dino", "vild", "pointcloud",
                         "symbolic", "owl-vit", "diffusion-world-model"):
            assert get_perception(expected).name == expected

    def test_unknown_raises(self):
        with pytest.raises(UnknownModelError):
            get_perception("lidar-9000")

    def test_validation(self):
        with pytest.raises(ValueError):
            PerceptionProfile(name="x", latency_s=0.1, recall=0.0, mislabel_rate=0.0)
        with pytest.raises(ValueError):
            PerceptionProfile(name="x", latency_s=0.1, recall=0.9, mislabel_rate=1.0)


class TestDetection:
    def test_symbolic_is_perfect(self, rng):
        ground = facts()
        assert list(detect(ground, get_perception("symbolic"), rng)) == ground

    def test_latency_from_profile(self, context, clock):
        """A sensing pass charges its profile's latency, once."""
        env = small_env("household", difficulty="easy", seed=0)
        env.tick()
        SensingModule(context, "mask-rcnn").sense(env)
        latency = get_perception("mask-rcnn").latency_s
        assert clock.elapsed_by_phase() == {(ModuleName.SENSING, "mask-rcnn"): latency}

    def test_imperfect_recall_drops_facts(self):
        rng = np.random.default_rng(0)
        low_recall = PerceptionProfile(name="blurry", latency_s=0.1, recall=0.3, mislabel_rate=0.0)
        ground = facts(100)
        reported = detect(ground, low_recall, rng)
        assert 0 < len(reported) < 100
        # Without mislabeling, every reported fact is a ground fact.
        assert all(fact in ground for fact in reported)

    def test_mislabeling_needs_distractors(self):
        rng = np.random.default_rng(0)
        sloppy = PerceptionProfile(name="sloppy", latency_s=0.1, recall=1.0, mislabel_rate=0.9)
        clean = detect(facts(50), sloppy, rng)
        # No distractor vocabulary provided: every value stays true.
        assert all(fact.value == "room_a" for fact in clean)
        noisy = detect(facts(50), sloppy, rng, distractor_values=["room_b", "room_c"])
        assert any(fact.value != "room_a" for fact in noisy)

    def test_mislabeled_fact_keeps_subject(self):
        rng = np.random.default_rng(3)
        sloppy = PerceptionProfile(name="sloppy2", latency_s=0.1, recall=1.0, mislabel_rate=0.95)
        for fact in detect(facts(5), sloppy, rng, distractor_values=["room_z"]):
            assert fact.subject.startswith("obj_")
            assert fact.value in ("room_a", "room_z")

    @settings(max_examples=20)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_counts_are_consistent(self, seed):
        rng = np.random.default_rng(seed)
        profile = get_perception("vild")
        ground = facts(30)
        reported = detect(ground, profile, rng, distractor_values=["room_b"])
        # Each reported fact is one ground fact, in ground order, with its
        # true value or the distractor.
        subjects = [fact.subject for fact in reported]
        assert subjects == [fact.subject for fact in ground if fact.subject in subjects]
        assert all(fact.value in ("room_a", "room_b") for fact in reported)
