"""Virtual time and per-module latency accounting.

The paper profiles embodied systems by attributing wall-clock time to the
six building-block modules (Fig. 2).  We reproduce that accounting on a
*virtual* clock: every module advances the clock by its modeled latency and
tags the charge with ``(module, phase)``.  This makes latency measurements
deterministic and host-independent while preserving the paper's breakdown
structure exactly.

The clock keeps only what its consumers read: the current time and the
running per-module and per-(module, phase) sums, accumulated in charge
arrival order.  Host-time attribution lives outside the simulator, in the
end-to-end benchmark's probes (``python3 e2ebench/run.py --trace 1``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ModuleName(enum.Enum):
    """The six building blocks of the paper's taxonomy (Sec. II-A)."""

    SENSING = "sensing"
    PLANNING = "planning"
    COMMUNICATION = "communication"
    MEMORY = "memory"
    REFLECTION = "reflection"
    EXECUTION = "execution"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    # Members are singletons and enum equality is identity, so identity
    # hashing is semantically equivalent to ``Enum.__hash__`` (which
    # re-hashes the member *name* string on every call) — and members key
    # every per-charge accounting dict on the episode hot loop.
    __hash__ = object.__hash__


#: Canonical ordering used by reports, matching Fig. 2's legend order.
MODULE_ORDER: tuple[ModuleName, ...] = (
    ModuleName.SENSING,
    ModuleName.PLANNING,
    ModuleName.COMMUNICATION,
    ModuleName.MEMORY,
    ModuleName.REFLECTION,
    ModuleName.EXECUTION,
)

#: Modules whose latency is dominated by LLM inference in typical systems.
LLM_MODULES = frozenset(
    {ModuleName.PLANNING, ModuleName.COMMUNICATION, ModuleName.REFLECTION}
)


@dataclass
class SimClock:
    """Monotonic virtual clock with per-module attribution.

    ``advance`` is the only way time moves.  ``parallel`` scopes a group
    of advances that are semantically concurrent (e.g. per-agent local
    inference on separate GPUs): within the scope the clock only moves by
    the *maximum* of the grouped durations, but each charge keeps its full
    duration in the per-module accounting.
    """

    now: float = 0.0
    _parallel_depth: int = 0
    _parallel_front: float = 0.0
    _module_seconds: dict = field(default_factory=dict, repr=False)
    _phase_seconds: dict = field(default_factory=dict, repr=False)

    def _attribute(self, duration: float, module: ModuleName, phase: str) -> None:
        # In-place += with a KeyError fallback: the accumulator keys (a
        # handful of modules/phases) are hit tens of thousands of times,
        # so the steady state is one dict indexing operation instead of a
        # get-then-store pair.
        totals = self._module_seconds
        try:
            totals[module] += duration
        except KeyError:
            totals[module] = duration
        phases = self._phase_seconds
        key = (module, phase)
        try:
            phases[key] += duration
        except KeyError:
            phases[key] = duration

    def advance(
        self, duration: float, module: ModuleName, phase: str = "", times: int = 1
    ) -> None:
        """Advance virtual time by ``duration`` seconds, attributed.

        ``times=k`` makes k identical charges in one call: each running
        sum, and ``now`` outside a scope, takes k sequential additions of
        ``duration``, so every float equals what k separate calls leave,
        inside :meth:`parallel` and :meth:`overlapped` scopes too.
        ``times=0`` charges nothing.
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        if times != 1:
            self._advance_repeated(duration, module, phase, times)
            return
        self._attribute(duration, module, phase)
        if self._parallel_depth > 0:
            self._parallel_front = max(self._parallel_front, self.now + duration)
        else:
            self.now += duration

    def _advance_repeated(
        self, duration: float, module: ModuleName, phase: str, times: int
    ) -> None:
        """:meth:`advance`'s ``times=k`` charge: k attributions, then k
        additions to ``now`` outside a scope."""
        if times < 0:
            raise ValueError(f"times must be non-negative, got {times}")
        if times == 0:
            return
        for _ in range(times):
            self._attribute(duration, module, phase)
        if self._parallel_depth > 0:
            # Inside a scope ``now`` stays put, so k charges reach one front.
            self._parallel_front = max(self._parallel_front, self.now + duration)
        else:
            now = self.now
            for _ in range(times):
                now += duration
            self.now = now

    def wait(self, duration: float) -> None:
        """Advance time without attributing it to a module (idle/env time)."""
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        self.now += duration

    def settle(
        self,
        completion: float,
        duration: float,
        module: ModuleName,
        phase: str = "",
    ) -> None:
        """Attribute ``duration`` to a charge *ending* at absolute virtual
        time ``completion``, moving the clock forward to ``completion``
        only if it lies in the future.

        This is the charge primitive of the continuous-batching serving
        engine (:mod:`repro.llm.scheduler`): per-request completions are
        computed on the absolute timeline from their arrival times, so a
        request may finish before ``now`` (its service overlapped work
        already charged — zero wall-clock impact) or after it (the queue
        stretched the step).  ``elapsed_by_module`` /
        ``elapsed_by_phase`` still sum the full attributed duration —
        queueing delay included — exactly like :meth:`advance`.
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        self._attribute(duration, module, phase)
        if self._parallel_depth > 0:
            self._parallel_front = max(self._parallel_front, completion)
        else:
            self.now = max(self.now, completion)

    def parallel(self) -> "_ParallelScope":
        """Context manager grouping concurrent advances (max, not sum)."""
        return _ParallelScope(self)

    def overlapped(self, anchor: float) -> "_OverlapScope":
        """Concurrent advances backdated to start at ``anchor <= now``.

        The perception–generation overlap model (the ``overlap`` setting):
        sensing for step ``t+1`` physically starts while generation for
        step ``t`` is still decoding, i.e. at ``anchor`` — the clock
        position where the previous serving flush began charging — not
        at ``now``.  Inside the scope, advances behave like
        :meth:`parallel` but are measured from ``anchor``; on exit the
        clock lands at ``max(now_at_entry, anchor + longest_advance)``,
        so perception that fits inside the generation tail costs no
        wall-clock at all while its charges keep their full per-module
        attribution.
        """
        return _OverlapScope(self, anchor)

    def elapsed_by_module(self) -> dict[ModuleName, float]:
        """Total attributed duration per module (sums even parallel charges)."""
        return dict(self._module_seconds)

    def elapsed_by_phase(self) -> dict[tuple[ModuleName, str], float]:
        """Total attributed duration per (module, phase)."""
        return dict(self._phase_seconds)


class _ParallelScope:
    """Implements :meth:`SimClock.parallel`; supports nesting."""

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock

    def __enter__(self) -> SimClock:
        clock = self._clock
        if clock._parallel_depth == 0:
            clock._parallel_front = clock.now
        clock._parallel_depth += 1
        return clock

    def __exit__(self, exc_type, exc, tb) -> None:
        clock = self._clock
        clock._parallel_depth -= 1
        if clock._parallel_depth == 0:
            clock.now = max(clock.now, clock._parallel_front)


class _OverlapScope:
    """Implements :meth:`SimClock.overlapped`: a parallel group whose
    start is backdated to an earlier clock position (never nested)."""

    def __init__(self, clock: SimClock, anchor: float) -> None:
        if clock._parallel_depth > 0:
            raise ValueError("overlapped() scopes cannot nest inside parallel()")
        self._clock = clock
        self._anchor = anchor
        self._resume = 0.0

    def __enter__(self) -> SimClock:
        clock = self._clock
        self._resume = clock.now
        # Advances inside measure from the (earlier) anchor; a stale
        # anchor from long ago never rewinds past what makes sense —
        # it is clamped to the current clock position.
        clock.now = min(clock.now, max(0.0, self._anchor))
        clock._parallel_front = clock.now
        clock._parallel_depth = 1
        return clock

    def __exit__(self, exc_type, exc, tb) -> None:
        clock = self._clock
        clock._parallel_depth = 0
        clock.now = max(self._resume, clock._parallel_front)
