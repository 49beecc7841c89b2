"""Tests for analysis: tables, reports, profiler, series helpers."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import profiler
from repro.analysis.report import (
    checkmark,
    format_bar,
    format_bar_chart,
    format_series,
    format_table,
)
from repro.analysis.series import growth_slope
from repro.analysis.tables import render_table1, render_table2
from repro.core.clock import LLM_MODULES, ModuleName
from repro.core.metrics import AggregateResult


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["a", "long_header"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len({line.index("2") for line in lines[2:3]}) == 1

    def test_title(self):
        assert format_table(["x"], [["1"]], title="T").startswith("T\n")

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    @given(
        rows=st.lists(
            st.tuples(st.integers(), st.integers()), min_size=1, max_size=10
        )
    )
    def test_row_count_preserved(self, rows):
        table = format_table(["x", "y"], [list(map(str, row)) for row in rows])
        assert len(table.splitlines()) == 2 + len(rows)


class TestBars:
    def test_full_bar(self):
        assert format_bar(10, 10, width=10) == "#" * 10

    def test_empty_bar(self):
        assert format_bar(0, 10, width=10) == "." * 10

    def test_zero_max(self):
        assert format_bar(5, 0) == ""

    def test_chart_labels_align(self):
        chart = format_bar_chart(["aa", "b"], [1.0, 2.0], unit=" min")
        lines = chart.splitlines()
        assert len(lines) == 2
        assert "min" in lines[0]

    def test_chart_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_bar_chart(["a"], [1.0, 2.0])


class TestSeries:
    def test_format_series_columns(self):
        text = format_series([1, 2], {"s1": [10.0, 20.0]}, x_label="step")
        assert "step" in text and "s1" in text and "20.0" in text

    def test_growth_slope_positive_for_growth(self):
        series = [(step, 100 + 10 * step) for step in range(10)]
        assert growth_slope(series) == pytest.approx(10.0)

    def test_growth_slope_zero_for_flat(self):
        assert growth_slope([(1, 5), (2, 5), (3, 5)]) == pytest.approx(0.0)

    def test_growth_slope_short_series(self):
        assert growth_slope([(1, 5)]) == 0.0
        assert growth_slope([]) == 0.0

    @given(
        slope=st.floats(min_value=-50, max_value=50),
        intercept=st.floats(min_value=0, max_value=1000),
    )
    def test_slope_recovers_linear(self, slope, intercept):
        series = [(step, intercept + slope * step) for step in range(12)]
        assert growth_slope(series) == pytest.approx(slope, abs=1e-6)


class TestProfiler:
    def test_llm_fraction_does_not_depend_on_the_set_order(self, monkeypatch):
        # The LLM modules' shares, 0.05 + 0.1 + 0.15, round differently
        # in different orders; the frozenset's order varies by process.
        seconds = {
            ModuleName.SENSING: 1.0,
            ModuleName.PLANNING: 0.1,
            ModuleName.COMMUNICATION: 0.2,
            ModuleName.REFLECTION: 0.3,
            ModuleName.EXECUTION: 0.4,
        }
        result = AggregateResult(
            workload="probe",
            n_trials=1,
            success_rate=1.0,
            mean_steps=1.0,
            mean_sim_minutes=1.0,
            mean_seconds_per_step=2.0,
            module_seconds=seconds,
            mean_llm_calls=1.0,
            mean_prompt_tokens=1.0,
            llm_fraction=0.0,
            message_usefulness=0.0,
            mean_messages_sent=0.0,
            mean_goal_progress=1.0,
        )
        fractions = set()
        for order in itertools.permutations(LLM_MODULES):
            monkeypatch.setattr(profiler, "LLM_MODULES", order)
            fractions.add(profiler.profile_from_aggregate(result).llm_fraction)
        assert len(fractions) == 1, fractions
        assert fractions.pop() == pytest.approx(0.3)


class TestPaperTables:
    def test_table1_contains_suite_and_extended(self):
        text = render_table1()
        for name in ("jarvis-1", "coela", "rt-2", "voyager", "agentverse"):
            assert name in text

    def test_table1_has_all_four_paradigms(self):
        text = render_table1()
        for label in (
            "Single-Agent / Modularized",
            "Single-Agent / End-to-End",
            "Multi-Agent / Centralized",
            "Multi-Agent / Decentralized",
        ):
            assert label in text

    def test_table2_lists_models(self):
        text = render_table2()
        assert "gpt-4" in text
        assert "mask-rcnn" in text
        assert "cuisine" in text

    def test_checkmark(self):
        assert checkmark(True) == "yes"
        assert checkmark(False) == "-"
