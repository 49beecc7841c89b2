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
        with clock.concurrent():
            clock.settle(6.0, 1.0, ModuleName.PLANNING)
            clock.settle(4.0, 1.0, ModuleName.PLANNING)
        assert clock.now == pytest.approx(6.0)


class TestOverlapped:
    """A scope with a ``start`` before ``now``: the overlap model."""

    def test_backdates_to_anchor(self, clock):
        """Work fitting inside the tail since the anchor is free."""
        clock.advance(10.0, ModuleName.PLANNING)
        with clock.concurrent(4.0):
            clock.advance(3.0, ModuleName.SENSING)  # 4.0 -> 7.0 < 10.0
        assert clock.now == pytest.approx(10.0)
        assert clock.elapsed_by_module()[ModuleName.SENSING] == pytest.approx(3.0)

    def test_long_overlap_extends_past_resume(self, clock):
        clock.advance(10.0, ModuleName.PLANNING)
        with clock.concurrent(4.0):
            clock.advance(9.0, ModuleName.SENSING)  # 4.0 -> 13.0 > 10.0
        assert clock.now == pytest.approx(13.0)

    def test_branches_take_max_like_parallel(self, clock):
        clock.advance(10.0, ModuleName.PLANNING)
        with clock.concurrent(8.0):
            clock.advance(1.0, ModuleName.SENSING)
            clock.advance(5.0, ModuleName.SENSING)
        assert clock.now == pytest.approx(13.0)

    def test_stale_anchor_clamps_to_now(self, clock):
        clock.advance(2.0, ModuleName.PLANNING)
        with clock.concurrent(50.0):
            clock.advance(1.0, ModuleName.SENSING)
        assert clock.now == pytest.approx(3.0)

    def test_rejects_nesting_inside_parallel(self, clock):
        """Scopes never nest, with or without a start, and a refused
        attempt leaves the open scope working."""
        with clock.concurrent():
            with pytest.raises(ValueError):
                clock.concurrent(0.0)
            with pytest.raises(ValueError):
                clock.concurrent()
            clock.advance(2.0, ModuleName.SENSING)
        assert clock.now == 2.0


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
    """A scope without a start measures from ``now``."""

    def test_parallel_takes_max(self, clock):
        with clock.concurrent():
            clock.advance(2.0, ModuleName.SENSING)
            clock.advance(5.0, ModuleName.SENSING)
            clock.advance(1.0, ModuleName.SENSING)
        assert clock.now == pytest.approx(5.0)

    def test_parallel_preserves_full_attribution(self, clock):
        with clock.concurrent():
            clock.advance(2.0, ModuleName.EXECUTION)
            clock.advance(3.0, ModuleName.EXECUTION)
        assert clock.elapsed_by_module()[ModuleName.EXECUTION] == pytest.approx(5.0)

    def test_parallel_after_sequential(self, clock):
        clock.advance(1.0, ModuleName.PLANNING)
        with clock.concurrent():
            clock.advance(4.0, ModuleName.EXECUTION)
            clock.advance(2.0, ModuleName.EXECUTION)
        assert clock.now == pytest.approx(5.0)

    def test_empty_parallel_scope_is_noop(self, clock):
        clock.advance(1.0, ModuleName.PLANNING)
        with clock.concurrent():
            pass
        assert clock.now == pytest.approx(1.0)


durations = st.floats(min_value=0.0, max_value=50.0)
phases = st.sampled_from(("", "a", "b"))
modules = st.sampled_from(MODULE_ORDER)
#: Absolute completion times land before, at and after the clock's now.
completions = st.floats(min_value=0.0, max_value=400.0)
#: Scope starts: none (measure from now), stale ones past now, and small
#: or negative ones that clamp.
starts = st.none() | st.floats(-5.0, 5.0) | st.floats(0.0, 400.0)
#: ``times`` covers no charge, one, and several identical ones.
repeat_counts = st.integers(0, 7)
charges = (
    st.tuples(st.just("advance"), durations, modules, phases)
    | st.tuples(st.just("settle"), completions, durations, modules, phases)
    | st.tuples(st.just("repeated"), durations, modules, phases, repeat_counts)
    # A negative duration (at any count) or count must raise and charge
    # nothing.
    | st.tuples(st.just("invalid"), st.floats(-5.0, -0.001), modules, phases, repeat_counts)
    | st.tuples(st.just("invalid"), durations, modules, phases, st.integers(-3, -1))
)
#: Inside a scope: charges, and scopes nested at any depth, whose opening
#: must raise while their bodies' charges run in the open scope.
scoped_ops = st.recursive(
    charges,
    lambda inner: st.tuples(st.just("concurrent"), starts, st.lists(inner, max_size=4)),
    max_leaves=6,
)
top_level_ops = st.one_of(
    charges,
    st.tuples(st.just("wait"), durations),
    st.tuples(st.just("concurrent"), starts, st.lists(scoped_ops, max_size=4)),
)


def _leaf_charges(ops):
    """The advance/settle charges of a scope body, in charge order; a
    repeated charge expands into its ``times`` single advances."""
    for op in ops:
        if op[0] in ("advance", "settle"):
            yield op
        elif op[0] == "repeated":
            _kind, duration, module, phase, times = op
            for _ in range(times):
                yield ("advance", duration, module, phase)
        elif op[0] == "concurrent":
            yield from _leaf_charges(op[2])


def _charge_end(op, base: float) -> float:
    """Where one charge ends when its scope measures from ``base``."""
    if op[0] == "advance":
        return base + op[1]
    return op[1]  # settle: its absolute completion


def _body(op) -> list:
    """A top-level op's charge-bearing body (the op itself if unscoped)."""
    return op[2] if op[0] == "concurrent" else [op]


def _expected_sequential(op, now: float) -> float:
    """Where an unscoped charge leaves ``now``: one addition per advance."""
    for leaf in _leaf_charges([op]):
        now = now + leaf[1] if leaf[0] == "advance" else max(now, leaf[1])
    return now


def _expected_end(op, now: float) -> float:
    """The reference model: where ``now`` lands after one top-level op."""
    kind = op[0]
    if kind == "wait":
        return now + op[1]
    if kind in ("advance", "settle", "repeated", "invalid"):
        return _expected_sequential(op, now)
    # A scope measures from entry, or from its start clamped into
    # [0, now].  It ends at its latest charge end, never before it began.
    base = now if op[1] is None else min(now, max(0.0, op[1]))
    return max([now] + [_charge_end(leaf, base) for leaf in _leaf_charges(_body(op))])


def _run(clock: SimClock, op, scoped: bool = False) -> None:
    kind = op[0]
    if kind == "advance":
        clock.advance(op[1], op[2], phase=op[3])
    elif kind == "repeated":
        clock.advance(op[1], op[2], phase=op[3], times=op[4])
    elif kind == "invalid":
        with pytest.raises(ValueError):
            clock.advance(op[1], op[2], phase=op[3], times=op[4])
    elif kind == "settle":
        clock.settle(op[1], op[2], op[3], phase=op[4])
    elif kind == "wait":
        clock.wait(op[1])
    elif scoped:
        with pytest.raises(ValueError):
            clock.concurrent(op[1])
        for inner in op[2]:
            _run(clock, inner, scoped=True)
    else:
        with clock.concurrent(op[1]):
            for inner in op[2]:
                _run(clock, inner, scoped=True)


class TestNestingProperties:
    @settings(max_examples=100, deadline=None)
    @given(program=st.lists(top_level_ops, max_size=8))
    # A negative start clamps to 0, not below it.
    @example(program=[("concurrent", -3.0, [("advance", 2.0, ModuleName.SENSING, "")])])
    # Repeated charges at top level and in scopes with and without a
    # start, where k additions differ from one multiplication
    # (7 * 0.1 != 0.1 + ... + 0.1), and the charges that must add nothing,
    # nor move a scope's end.
    @example(
        program=[
            ("repeated", 0.1, ModuleName.MEMORY, "a", 7),
            (
                "concurrent",
                None,
                [
                    ("repeated", 0.7, ModuleName.MEMORY, "b", 7),
                    ("repeated", 9.0, ModuleName.PLANNING, "", 0),
                ],
            ),
            ("concurrent", 0.05, [("repeated", 0.7, ModuleName.SENSING, "", 7)]),
            ("repeated", 9.0, ModuleName.PLANNING, "", 0),
            ("invalid", -1.0, ModuleName.PLANNING, "", 2),
            ("invalid", 1.0, ModuleName.REFLECTION, "", -1),
        ]
    )
    # Openings nested two and three deep: each raises, and the charges
    # around them still run in the outer scope.
    @example(
        program=[
            (
                "concurrent",
                1.0,
                [
                    ("concurrent", None, [("advance", 4.0, ModuleName.SENSING, "")]),
                    (
                        "concurrent",
                        0.0,
                        [
                            ("concurrent", None, []),
                            ("settle", 9.0, 1.0, ModuleName.PLANNING, ""),
                        ],
                    ),
                ],
            )
        ]
    )
    def test_scopes_match_reference_model(self, program):
        """Random advance/settle programs, repeated charges included, in
        concurrent() scopes with and without a start, against a reference
        model that expands a ``times=k`` advance into k single ones: scope
        ends, monotone ``now``, totals summed in charge order with their
        keys in first-charge order, and every nested opening refused."""
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
        assert list(clock.elapsed_by_module()) == list(module_totals)
        assert list(clock.elapsed_by_phase()) == list(phase_totals)


class TestConstants:
    def test_module_order_covers_all_modules(self):
        assert set(MODULE_ORDER) == set(ModuleName)

    def test_llm_modules_subset(self):
        assert LLM_MODULES <= set(ModuleName)
        assert ModuleName.PLANNING in LLM_MODULES
        assert ModuleName.EXECUTION not in LLM_MODULES
