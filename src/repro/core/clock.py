"""Virtual time and per-module latency accounting.

The paper profiles embodied systems by attributing wall-clock time to the
six building-block modules (Fig. 2).  We reproduce that accounting on a
*virtual* clock: every module advances the clock by its modeled latency and
tags the span with ``(module, phase)``.  This makes latency measurements
deterministic and host-independent while preserving the paper's breakdown
structure exactly.

Host-time probe (``REPRO_PROFILE``): orthogonally to the virtual clock,
the process can record how much *real* CPU time the Python hot path spends
producing each modeled operation.  Every ``advance`` marks the host clock
and attributes the time elapsed since the previous mark to the advanced
``(module, phase)`` — i.e. the Python work that *prepared* a modeled
operation is charged to that operation.  The probe is for performance
diagnosis only: it never touches the virtual clock, metrics, or results,
so enabling it cannot perturb reproduction numbers.  Enable with
``REPRO_PROFILE=1`` (or :func:`enable_host_profiling`), then read
:func:`host_profiler` — see :func:`repro.core.metrics.host_profile_report`
for a formatted view.

Coarse span mode (the ``clock="coarse"`` run setting, ``REPRO_CLOCK``):
long sweeps record thousands of spans per episode just to be summed once
at finalization.  Coarse mode keeps only the running per-module and
per-(module, phase) sums — accumulated in span arrival order, so every
reported total is byte-identical to the full mode — and never
materializes the span list.  The per-span record (``SimClock.spans``) is
then empty; keep the default full mode for anything that inspects
individual spans.
"""

from __future__ import annotations

import enum
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.settings import current


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
    # every per-span accounting dict on the episode hot loop.
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


class Span(NamedTuple):
    """A single attributed latency interval on the virtual clock.

    A named tuple rather than a dataclass: episodes record one span per
    modeled operation (thousands per episode), and tuple construction
    keeps this bookkeeping off the profile while preserving the same
    field access, equality, and immutability.
    """

    module: ModuleName
    phase: str
    start: float
    duration: float
    agent: str = ""

    @property
    def end(self) -> float:
        return self.start + self.duration


# --------------------------------------------------------------------- #
# Host-time probe (REPRO_PROFILE)
# --------------------------------------------------------------------- #


class HostProfiler:
    """Accumulates real elapsed time between virtual-clock marks.

    Keys are ``(module, phase)`` string pairs.  Single-threaded by design
    (one probe per process); the suite's concurrent-section mode shares
    one profiler, so enable it only for serial diagnosis runs.
    """

    __slots__ = ("seconds", "marks", "_last")

    def __init__(self) -> None:
        self.seconds: dict[tuple[str, str], float] = defaultdict(float)
        self.marks: dict[tuple[str, str], int] = defaultdict(int)
        self._last = time.perf_counter()

    def mark(self, module: str, phase: str) -> None:
        """Attribute time since the previous mark to ``(module, phase)``."""
        now = time.perf_counter()
        key = (module, phase)
        self.seconds[key] += now - self._last
        self.marks[key] += 1
        self._last = now

    def sync(self) -> None:
        """Restart the interval without attributing the elapsed time.

        Called at episode boundaries so inter-episode work (environment
        construction, result aggregation) is not billed to the first
        phase of the next episode.
        """
        self._last = time.perf_counter()

    def reset(self) -> None:
        self.seconds.clear()
        self.marks.clear()
        self._last = time.perf_counter()

    def snapshot(self) -> dict[tuple[str, str], tuple[float, int]]:
        """Current totals: ``(module, phase) -> (seconds, marks)``."""
        return {key: (self.seconds[key], self.marks[key]) for key in self.seconds}


def _profile_from_env() -> bool:
    return os.environ.get("REPRO_PROFILE", "").strip().lower() in {
        "1",
        "true",
        "on",
        "yes",
    }


_HOST_PROFILER: HostProfiler | None = HostProfiler() if _profile_from_env() else None


def host_profiler() -> HostProfiler | None:
    """The process-wide host-time probe, or ``None`` when disabled."""
    return _HOST_PROFILER


def enable_host_profiling(enabled: bool = True) -> HostProfiler | None:
    """Turn the host-time probe on/off in-process; returns the profiler."""
    global _HOST_PROFILER
    if enabled:
        if _HOST_PROFILER is None:
            _HOST_PROFILER = HostProfiler()
    else:
        _HOST_PROFILER = None
    return _HOST_PROFILER


@dataclass
class SimClock:
    """Monotonic virtual clock with span attribution.

    ``advance`` is the only way time moves; it returns the recorded span so
    callers can log it.  ``parallel`` scopes a group of advances that are
    semantically concurrent (e.g. per-agent local inference on separate
    GPUs): within the scope the clock only moves by the *maximum* of the
    grouped durations, but each span retains its full duration for
    per-module accounting.
    """

    now: float = 0.0
    spans: list[Span] = field(default_factory=list)
    _parallel_depth: int = 0
    _parallel_front: float = 0.0
    #: Captured at construction from the run settings.  In coarse mode no
    #: per-span records are kept — only the running per-module and
    #: per-(module, phase) sums below, which accumulate in the exact
    #: arrival order the full mode would have summed its span list in, so
    #: the reported totals are byte-identical.
    _coarse: bool = field(default_factory=lambda: current().clock == "coarse")
    _module_seconds: dict = field(default_factory=dict, repr=False)
    _phase_seconds: dict = field(default_factory=dict, repr=False)

    def advance(
        self,
        duration: float,
        module: ModuleName,
        phase: str = "",
        agent: str = "",
    ) -> Span | None:
        """Advance virtual time by ``duration`` seconds, attributed.

        Returns the recorded span, or ``None`` in coarse mode (there is
        no span to return; no in-tree caller reads it).
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        if self._coarse:
            span = None
            # In-place += with a KeyError fallback: the accumulator keys
            # (a handful of modules/phases) are hit tens of thousands of
            # times, so the steady state is one dict indexing operation
            # instead of a get-then-store pair.
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
        else:
            span = Span(
                module=module,
                phase=phase,
                start=self.now,
                duration=duration,
                agent=agent,
            )
            self.spans.append(span)
        if self._parallel_depth > 0:
            self._parallel_front = max(self._parallel_front, self.now + duration)
        else:
            self.now += duration
        if _HOST_PROFILER is not None:
            _HOST_PROFILER.mark(module.value, phase)
        return span

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
        agent: str = "",
    ) -> Span | None:
        """Attribute ``duration`` to a span *ending* at absolute virtual
        time ``completion``, moving the clock forward to ``completion``
        only if it lies in the future.

        This is the charge primitive of the continuous-batching serving
        engine (:mod:`repro.llm.scheduler`): per-request completions are
        computed on the absolute timeline from their arrival times, so a
        request may finish before ``now`` (its service overlapped work
        already charged — zero wall-clock impact) or after it (the queue
        stretched the step).  ``elapsed_by_module`` /
        ``elapsed_by_phase`` still sum the full attributed duration —
        queueing delay included — exactly like :meth:`advance` spans.
        The recorded span starts at ``completion - duration``, which may
        precede earlier spans; consumers sum durations, never assume
        monotone starts.
        """
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        if self._coarse:
            span = None
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
        else:
            span = Span(
                module=module,
                phase=phase,
                start=completion - duration,
                duration=duration,
                agent=agent,
            )
            self.spans.append(span)
        if self._parallel_depth > 0:
            self._parallel_front = max(self._parallel_front, completion)
        else:
            self.now = max(self.now, completion)
        if _HOST_PROFILER is not None:
            _HOST_PROFILER.mark(module.value, phase)
        return span

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
        wall-clock at all while its spans keep their full per-module
        attribution.
        """
        return _OverlapScope(self, anchor)

    def elapsed_by_module(self) -> dict[ModuleName, float]:
        """Total attributed duration per module (sums even parallel spans)."""
        if self._coarse:
            return dict(self._module_seconds)
        totals: dict[ModuleName, float] = defaultdict(float)
        for span in self.spans:
            totals[span.module] += span.duration
        return dict(totals)

    def elapsed_by_phase(self) -> dict[tuple[ModuleName, str], float]:
        if self._coarse:
            return dict(self._phase_seconds)
        totals: dict[tuple[ModuleName, str], float] = defaultdict(float)
        for span in self.spans:
            totals[(span.module, span.phase)] += span.duration
        return dict(totals)

    def reset(self) -> None:
        self.now = 0.0
        self.spans.clear()
        self._module_seconds.clear()
        self._phase_seconds.clear()
        self._parallel_depth = 0
        self._parallel_front = 0.0


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
