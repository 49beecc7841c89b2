"""Tests for the virtual clock and latency attribution."""

import pytest
from hypothesis import example, given, settings
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


durations = st.floats(min_value=0.0, max_value=50.0)
phases = st.sampled_from(("", "a", "b"))
modules = st.sampled_from(MODULE_ORDER)
#: Absolute completion times land before, at and after the clock's now.
completions = st.floats(min_value=0.0, max_value=400.0)
#: Anchors: stale ones past now, and small or negative ones that clamp.
anchors = st.floats(-5.0, 5.0) | st.floats(0.0, 400.0)
charges = st.tuples(st.just("advance"), durations, modules, phases) | st.tuples(
    st.just("settle"), completions, durations, modules, phases
)
#: Inside any scope: charges, nested parallel scopes, and overlapped()
#: attempts, which must raise.
scoped_ops = st.recursive(
    charges | st.tuples(st.just("nested_overlapped"), anchors),
    lambda inner: st.tuples(st.just("parallel"), st.lists(inner, max_size=4)),
    max_leaves=6,
)
top_level_ops = st.one_of(
    charges,
    st.tuples(st.just("wait"), durations),
    st.tuples(st.just("parallel"), st.lists(scoped_ops, max_size=4)),
    st.tuples(st.just("overlapped"), anchors, st.lists(scoped_ops, max_size=4)),
)


def _leaf_charges(ops):
    """The advance/settle charges of a scope body, in charge order."""
    for op in ops:
        if op[0] in ("advance", "settle"):
            yield op
        elif op[0] == "parallel":
            yield from _leaf_charges(op[1])


def _charge_end(op, base: float) -> float:
    """Where one charge ends when its scope measures from ``base``."""
    if op[0] == "advance":
        return base + op[1]
    return op[1]  # settle: its absolute completion


def _body(op) -> list:
    """A top-level op's charge-bearing body (the op itself if unscoped)."""
    if op[0] == "parallel":
        return op[1]
    if op[0] == "overlapped":
        return op[2]
    return [op]


def _expected_end(op, now: float) -> float:
    """The reference model: where ``now`` lands after one top-level op."""
    kind = op[0]
    if kind in ("advance", "wait"):
        return now + op[1]
    if kind == "settle":
        return max(now, op[1])
    # A parallel scope measures from entry; an overlapped one from its
    # anchor clamped into [0, now].  Either ends at its latest charge end,
    # never before it began.
    base = now if kind == "parallel" else min(now, max(0.0, op[1]))
    return max([now] + [_charge_end(leaf, base) for leaf in _leaf_charges(_body(op))])


def _run(clock: SimClock, op) -> None:
    kind = op[0]
    if kind == "advance":
        clock.advance(op[1], op[2], phase=op[3])
    elif kind == "settle":
        clock.settle(op[1], op[2], op[3], phase=op[4])
    elif kind == "wait":
        clock.wait(op[1])
    elif kind == "parallel":
        with clock.parallel():
            for inner in op[1]:
                _run(clock, inner)
    elif kind == "nested_overlapped":
        with pytest.raises(ValueError):
            clock.overlapped(op[1])
    else:
        with clock.overlapped(op[1]):
            for inner in op[2]:
                _run(clock, inner)


class TestNestingProperties:
    @settings(max_examples=100, deadline=None)
    @given(program=st.lists(top_level_ops, max_size=8))
    # A negative anchor clamps to 0, not below it.
    @example(program=[("overlapped", -3.0, [("advance", 2.0, ModuleName.SENSING, "")])])
    def test_scopes_match_reference_model(self, program):
        """Random advance/settle programs in nested parallel() scopes and
        top-level overlapped() scopes against a reference model: scope
        ends, monotone ``now``, and totals summed in charge order."""
        clock = SimClock()
        module_totals: dict = {}
        phase_totals: dict = {}
        for op in program:
            before = clock.now
            expected = _expected_end(op, before)
            _run(clock, op)
            assert clock.now == expected
            assert clock.now >= before
            for leaf in _leaf_charges(_body(op)):
                duration = leaf[1] if leaf[0] == "advance" else leaf[2]
                module, phase = leaf[-2], leaf[-1]
                module_totals[module] = module_totals.get(module, 0.0) + duration
                key = (module, phase)
                phase_totals[key] = phase_totals.get(key, 0.0) + duration
        assert clock.elapsed_by_module() == module_totals
        assert clock.elapsed_by_phase() == phase_totals


class TestConstants:
    def test_module_order_covers_all_modules(self):
        assert set(MODULE_ORDER) == set(ModuleName)

    def test_llm_modules_subset(self):
        assert LLM_MODULES <= set(ModuleName)
        assert ModuleName.PLANNING in LLM_MODULES
        assert ModuleName.EXECUTION not in LLM_MODULES
