"""Tests for the shared REPRO_* knob parsing helpers."""

import pytest

from repro.core.envknobs import bool_knob, choice_knob, int_knob, raw_knob
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


class TestBool:
    @pytest.mark.parametrize("value", ["0", "off", "FALSE", "no"])
    def test_false_spellings(self, monkeypatch, value):
        monkeypatch.setenv(KNOB, value)
        assert bool_knob(KNOB, default=True) is False

    @pytest.mark.parametrize("value", ["1", "on", "TRUE", "yes"])
    def test_true_spellings(self, monkeypatch, value):
        monkeypatch.setenv(KNOB, value)
        assert bool_knob(KNOB, default=False) is True

    @pytest.mark.parametrize("value", ["anything", "flase", "2", "y"])
    def test_anything_else_raises(self, monkeypatch, value):
        monkeypatch.setenv(KNOB, value)
        with pytest.raises(ValueError, match=KNOB):
            bool_knob(KNOB, default=False)

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
        from repro.experiments.common import ExperimentSettings

        monkeypatch.setenv("REPRO_TRIALS", " 3 ")
        monkeypatch.setenv("REPRO_WORKERS", "4")
        settings = ExperimentSettings.from_env()
        assert settings.n_trials == 3
        assert settings.max_workers == 4

    def test_overlap_spellings(self, monkeypatch):
        monkeypatch.setenv("REPRO_OVERLAP", "ON")
        assert RunSettings.from_env().overlap is True
        monkeypatch.setenv("REPRO_OVERLAP", "OFF")
        assert RunSettings.from_env().overlap is False
        monkeypatch.setenv("REPRO_OVERLAP", "flase")
        with pytest.raises(ValueError, match="REPRO_OVERLAP"):
            RunSettings.from_env()

    def test_serve_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE", "batched")
        assert RunSettings.from_env().serve == "batched"

    def test_serve_rejects_junk(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE", "streamed")
        with pytest.raises(ValueError, match="REPRO_SERVE"):
            RunSettings.from_env()
        monkeypatch.setenv("REPRO_SERVE", " Continuous ")
        assert RunSettings.from_env().serve == "continuous"
