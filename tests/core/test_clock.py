"""Tests for the virtual clock and latency attribution."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.clock import LLM_MODULES, MODULE_ORDER, ModuleName, SimClock


class TestAdvance:
    def test_advance_moves_time(self, clock):
        clock.advance(2.5, ModuleName.PLANNING)
        assert clock.now == pytest.approx(2.5)

    def test_advance_records_span(self, clock):
        clock.advance(1.0, ModuleName.SENSING, phase="vit")
        assert clock.elapsed_by_module() == {ModuleName.SENSING: 1.0}
        assert clock.elapsed_by_phase() == {(ModuleName.SENSING, "vit"): 1.0}

    def test_negative_duration_rejected(self, clock):
        with pytest.raises(ValueError):
            clock.advance(-0.1, ModuleName.MEMORY)

    def test_zero_duration_allowed(self, clock):
        clock.advance(0.0, ModuleName.MEMORY)
        assert clock.now == 0.0
        assert clock.elapsed_by_phase() == {(ModuleName.MEMORY, ""): 0.0}

    def test_wait_moves_time_without_span(self, clock):
        clock.wait(3.0)
        assert clock.now == pytest.approx(3.0)
        assert clock.elapsed_by_module() == {}

    def test_wait_negative_rejected(self, clock):
        with pytest.raises(ValueError):
            clock.wait(-1.0)


class TestSettle:
    def test_future_completion_moves_the_clock(self, clock):
        clock.advance(1.0, ModuleName.PLANNING)
        clock.settle(5.0, 3.0, ModuleName.PLANNING, phase="plan")
        assert clock.now == pytest.approx(5.0)
        assert clock.elapsed_by_phase()[(ModuleName.PLANNING, "plan")] == pytest.approx(3.0)

    def test_past_completion_leaves_now_alone(self, clock):
        """A request that finished before `now` overlapped already-charged
        work: zero wall-clock impact, full module attribution."""
        clock.advance(10.0, ModuleName.EXECUTION)
        clock.settle(4.0, 3.0, ModuleName.PLANNING)
        assert clock.now == pytest.approx(10.0)
        assert clock.elapsed_by_module()[ModuleName.PLANNING] == pytest.approx(3.0)

    def test_negative_duration_rejected(self, clock):
        with pytest.raises(ValueError):
            clock.settle(1.0, -0.1, ModuleName.PLANNING)

    def test_coarse_mode_sums_identically(self):
        """A settle ending now sums exactly like the equivalent advance."""
        settled, advanced = SimClock(), SimClock()
        settled.settle(3.0, 3.0, ModuleName.PLANNING, phase="p")
        advanced.advance(3.0, ModuleName.PLANNING, phase="p")
        assert settled.now == advanced.now == 3.0
        assert settled.elapsed_by_module() == advanced.elapsed_by_module()
        assert settled.elapsed_by_phase() == advanced.elapsed_by_phase()

    def test_inside_parallel_scope_extends_the_front(self, clock):
        clock.advance(2.0, ModuleName.EXECUTION)
        with clock.parallel():
            clock.settle(6.0, 1.0, ModuleName.PLANNING)
            clock.settle(4.0, 1.0, ModuleName.PLANNING)
        assert clock.now == pytest.approx(6.0)


class TestOverlapped:
    def test_backdates_to_anchor(self, clock):
        """Work fitting inside the tail since the anchor is free."""
        clock.advance(10.0, ModuleName.PLANNING)
        with clock.overlapped(4.0):
            clock.advance(3.0, ModuleName.SENSING)  # 4.0 -> 7.0 < 10.0
        assert clock.now == pytest.approx(10.0)
        assert clock.elapsed_by_module()[ModuleName.SENSING] == pytest.approx(3.0)

    def test_long_overlap_extends_past_resume(self, clock):
        clock.advance(10.0, ModuleName.PLANNING)
        with clock.overlapped(4.0):
            clock.advance(9.0, ModuleName.SENSING)  # 4.0 -> 13.0 > 10.0
        assert clock.now == pytest.approx(13.0)

    def test_branches_take_max_like_parallel(self, clock):
        clock.advance(10.0, ModuleName.PLANNING)
        with clock.overlapped(8.0):
            clock.advance(1.0, ModuleName.SENSING)
            clock.advance(5.0, ModuleName.SENSING)
        assert clock.now == pytest.approx(13.0)

    def test_stale_anchor_clamps_to_now(self, clock):
        clock.advance(2.0, ModuleName.PLANNING)
        with clock.overlapped(50.0):
            clock.advance(1.0, ModuleName.SENSING)
        assert clock.now == pytest.approx(3.0)

    def test_rejects_nesting_inside_parallel(self, clock):
        with clock.parallel():
            with pytest.raises(ValueError):
                clock.overlapped(0.0)


class TestAttribution:
    def test_elapsed_by_module_sums(self, clock):
        clock.advance(1.0, ModuleName.PLANNING)
        clock.advance(2.0, ModuleName.PLANNING)
        clock.advance(0.5, ModuleName.EXECUTION)
        totals = clock.elapsed_by_module()
        assert totals[ModuleName.PLANNING] == pytest.approx(3.0)
        assert totals[ModuleName.EXECUTION] == pytest.approx(0.5)

    def test_elapsed_by_phase(self, clock):
        clock.advance(1.0, ModuleName.PLANNING, phase="llm")
        clock.advance(2.0, ModuleName.PLANNING, phase="retry")
        totals = clock.elapsed_by_phase()
        assert totals[(ModuleName.PLANNING, "llm")] == pytest.approx(1.0)
        assert totals[(ModuleName.PLANNING, "retry")] == pytest.approx(2.0)

    @given(durations=st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=30))
    def test_total_attribution_equals_now_when_sequential(self, durations):
        clock = SimClock()
        for index, duration in enumerate(durations):
            module = MODULE_ORDER[index % len(MODULE_ORDER)]
            clock.advance(duration, module)
        assert sum(clock.elapsed_by_module().values()) == pytest.approx(clock.now)


class TestParallel:
    def test_parallel_takes_max(self, clock):
        with clock.parallel():
            clock.advance(2.0, ModuleName.SENSING)
            clock.advance(5.0, ModuleName.SENSING)
            clock.advance(1.0, ModuleName.SENSING)
        assert clock.now == pytest.approx(5.0)

    def test_parallel_preserves_full_attribution(self, clock):
        with clock.parallel():
            clock.advance(2.0, ModuleName.EXECUTION)
            clock.advance(3.0, ModuleName.EXECUTION)
        assert clock.elapsed_by_module()[ModuleName.EXECUTION] == pytest.approx(5.0)

    def test_parallel_after_sequential(self, clock):
        clock.advance(1.0, ModuleName.PLANNING)
        with clock.parallel():
            clock.advance(4.0, ModuleName.EXECUTION)
            clock.advance(2.0, ModuleName.EXECUTION)
        assert clock.now == pytest.approx(5.0)

    def test_empty_parallel_scope_is_noop(self, clock):
        clock.advance(1.0, ModuleName.PLANNING)
        with clock.parallel():
            pass
        assert clock.now == pytest.approx(1.0)

    def test_nested_parallel(self, clock):
        with clock.parallel():
            clock.advance(2.0, ModuleName.EXECUTION)
            with clock.parallel():
                clock.advance(3.0, ModuleName.EXECUTION)
        assert clock.now == pytest.approx(3.0)


class TestReset:
    def test_reset_clears_everything(self, clock):
        clock.advance(1.0, ModuleName.PLANNING)
        clock.reset()
        assert clock.now == 0.0
        assert clock.elapsed_by_module() == {}
        assert clock.elapsed_by_phase() == {}


class TestConstants:
    def test_module_order_covers_all_modules(self):
        assert set(MODULE_ORDER) == set(ModuleName)

    def test_llm_modules_subset(self):
        assert LLM_MODULES <= set(ModuleName)
        assert ModuleName.PLANNING in LLM_MODULES
        assert ModuleName.EXECUTION not in LLM_MODULES
