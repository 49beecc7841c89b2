"""Shape tests for the REPRO_PROFILE host-time report surface.

The probe and its report live outside the measured results on purpose
(results must stay byte-identical with profiling on or off), so these
tests pin down the *report* contract: activation, row shape, ordering,
the ``top`` limit, and coexistence with the coarse clock mode.
"""

from __future__ import annotations

import re

import pytest

from repro.core.clock import (
    ModuleName,
    SimClock,
    enable_host_profiling,
    host_profiler,
)
from repro.core.metrics import host_profile_report
from repro.core.settings import RunSettings, bind

COARSE = RunSettings(clock="coarse")

ROW = re.compile(
    r"^  (?P<key>\S+)\s+(?P<ms>[\d.]+) ms\s+(?P<marks>\d+) marks\s+"
    r"(?P<us>[\d.]+) us/mark$"
)


@pytest.fixture
def profiler():
    profiler = enable_host_profiling(True)
    profiler.reset()
    yield profiler
    enable_host_profiling(False)


def _drive(clock: SimClock) -> None:
    clock.advance(1.0, ModuleName.PLANNING, phase="plan")
    clock.advance(0.5, ModuleName.PLANNING, phase="plan")
    clock.advance(2.0, ModuleName.MEMORY, phase="retrieve")


class TestHostProfileReport:
    def test_disabled_probe_reports_none(self):
        enable_host_profiling(False)
        assert host_profiler() is None
        assert host_profile_report() is None

    def test_no_marks_yet(self, profiler):
        assert host_profile_report() == "host profile: no marks recorded"

    def test_rows_shape_and_order(self, profiler):
        _drive(SimClock())
        report = host_profile_report()
        lines = report.splitlines()
        assert lines[0] == "host-time per (module, phase):"
        rows = [ROW.match(line) for line in lines[1:]]
        assert all(rows)
        keys = [row.group("key") for row in rows]
        assert set(keys) == {"planning/plan", "memory/retrieve"}
        plan_marks = [
            int(row.group("marks")) for row in rows if row.group("key") == "planning/plan"
        ]
        assert plan_marks == [2]
        # Sorted by descending host seconds.
        seconds = [float(row.group("ms")) for row in rows]
        assert seconds == sorted(seconds, reverse=True)

    def test_top_limits_rows(self, profiler):
        _drive(SimClock())
        report = host_profile_report(top=1)
        assert len(report.splitlines()) == 2  # header + one row

    def test_marks_recorded_under_coarse_clock(self, profiler):
        """The coarse clock drops spans, not the host-time probe."""
        with bind(COARSE):
            clock = SimClock()
            _drive(clock)
        assert clock.spans == []
        snapshot = profiler.snapshot()
        assert ("planning", "plan") in snapshot
        seconds, marks = snapshot[("planning", "plan")]
        assert marks == 2 and seconds >= 0.0
        report = host_profile_report()
        assert "planning/plan" in report


class TestCoarseClock:
    def test_totals_match_full_mode(self):
        full = SimClock()
        _drive(full)
        with bind(COARSE):
            coarse = SimClock()
            _drive(coarse)
        assert coarse.spans == []
        assert coarse.now == full.now
        assert coarse.elapsed_by_module() == full.elapsed_by_module()
        assert coarse.elapsed_by_phase() == full.elapsed_by_phase()
        # Same insertion order, not just equal contents.
        assert list(coarse.elapsed_by_module()) == list(full.elapsed_by_module())

    def test_parallel_scope_unaffected(self):
        with bind(COARSE):
            clock = SimClock()
            with clock.parallel():
                clock.advance(2.0, ModuleName.SENSING)
                clock.advance(5.0, ModuleName.SENSING)
        assert clock.now == 5.0
        assert clock.elapsed_by_module() == {ModuleName.SENSING: 7.0}

    def test_reset_clears_sums(self):
        with bind(COARSE):
            clock = SimClock()
            _drive(clock)
            clock.reset()
        assert clock.now == 0.0
        assert clock.elapsed_by_module() == {}
        assert clock.elapsed_by_phase() == {}

    def test_flag_captured_at_construction(self):
        with bind(COARSE):
            clock = SimClock()
        # Settings bound after construction do not affect this clock.
        _drive(clock)
        assert clock.spans == []

    def test_hotpath_independent(self):
        """Coarse clocks work on both hot paths (settings are orthogonal)."""
        for fast in (False, True):
            with bind(RunSettings(hotpath=fast, clock="coarse")):
                clock = SimClock()
                _drive(clock)
                assert clock.elapsed_by_module()[ModuleName.MEMORY] == 2.0
