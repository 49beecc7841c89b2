"""Tests for the shared REPRO_* knob parsing helpers."""

import pytest

from repro.core.envknobs import bool_knob, choice_knob, float_knob, int_knob, raw_knob
from repro.core.settings import RunSettings

KNOB = "REPRO_TEST_KNOB"


class TestRaw:
    def test_unset_is_empty(self, monkeypatch):
        monkeypatch.delenv(KNOB, raising=False)
        assert raw_knob(KNOB) == ""

    def test_whitespace_stripped(self, monkeypatch):
        monkeypatch.setenv(KNOB, "  value  ")
        assert raw_knob(KNOB) == "value"


class TestInt:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(KNOB, raising=False)
        assert int_knob(KNOB, default=5) == 5

    def test_parses_with_whitespace(self, monkeypatch):
        monkeypatch.setenv(KNOB, " 12 ")
        assert int_knob(KNOB, default=5) == 12

    def test_rejects_non_integer(self, monkeypatch):
        monkeypatch.setenv(KNOB, "twelve")
        with pytest.raises(ValueError, match=KNOB):
            int_knob(KNOB, default=5)

    def test_enforces_minimum(self, monkeypatch):
        monkeypatch.setenv(KNOB, "0")
        with pytest.raises(ValueError, match=">= 1"):
            int_knob(KNOB, default=5)


class TestFloat:
    def test_parses_with_whitespace_and_validates(self, monkeypatch):
        monkeypatch.setenv(KNOB, " 2.5 ")
        assert float_knob(KNOB, default=1.0) == 2.5
        monkeypatch.setenv(KNOB, "fast")
        with pytest.raises(ValueError, match=KNOB):
            float_knob(KNOB, default=1.0)


class TestBool:
    @pytest.mark.parametrize("value", ["0", "off", "FALSE", "no"])
    def test_false_spellings(self, monkeypatch, value):
        monkeypatch.setenv(KNOB, value)
        assert bool_knob(KNOB, default=True) is False

    @pytest.mark.parametrize("value", ["1", "on", "yes", "anything"])
    def test_anything_else_is_on(self, monkeypatch, value):
        monkeypatch.setenv(KNOB, value)
        assert bool_knob(KNOB, default=False) is True

    @pytest.mark.parametrize("default", [True, False])
    def test_unset_uses_default(self, monkeypatch, default):
        monkeypatch.delenv(KNOB, raising=False)
        assert bool_knob(KNOB, default=default) is default


class TestChoice:
    def test_canonicalizes_case(self, monkeypatch):
        monkeypatch.setenv(KNOB, " Coarse ")
        assert choice_knob(KNOB, default="full", choices=("full", "coarse")) == "coarse"

    def test_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv(KNOB, raising=False)
        assert choice_knob(KNOB, default="full", choices=("full", "coarse")) == "full"

    def test_rejects_unknown_naming_choices(self, monkeypatch):
        monkeypatch.setenv(KNOB, "medium")
        with pytest.raises(ValueError, match="full"):
            choice_knob(KNOB, default="full", choices=("full", "coarse"))


class TestAdopters:
    """The live knobs resolve through the shared helpers."""

    def test_trials_and_workers(self, monkeypatch):
        from repro.experiments.common import trials_from_env, workers_from_env

        monkeypatch.setenv("REPRO_TRIALS", " 3 ")
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert trials_from_env() == 3
        assert workers_from_env() == 4

    def test_overlap_spellings(self, monkeypatch):
        monkeypatch.setenv("REPRO_OVERLAP", "ON")
        assert RunSettings.from_env().overlap is True
        monkeypatch.setenv("REPRO_OVERLAP", "OFF")
        assert RunSettings.from_env().overlap is False

    def test_detector_rejects_junk(self, monkeypatch):
        monkeypatch.setenv("REPRO_DETECTOR", "simd")
        with pytest.raises(ValueError, match="REPRO_DETECTOR"):
            RunSettings.from_env()
        monkeypatch.setenv("REPRO_DETECTOR", " Vector ")
        assert RunSettings.from_env().detector == "vector"

    def test_serve_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE", "batched")
        assert RunSettings.from_env().serve == "batched"
