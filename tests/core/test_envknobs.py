"""Tests for the shared REPRO_* knob parsing helpers."""

import pytest

from repro.core.envknobs import int_knob, raw_knob

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


class TestAdopters:
    """The live knobs resolve through the shared helpers."""

    def test_trials_and_workers(self, monkeypatch):
        from repro.experiments.common import ExperimentSettings

        monkeypatch.setenv("REPRO_TRIALS", " 3 ")
        monkeypatch.setenv("REPRO_WORKERS", "4")
        settings = ExperimentSettings.from_env()
        assert settings.n_trials == 3
        assert settings.max_workers == 4
