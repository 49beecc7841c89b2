"""Shared experiment infrastructure: trial settings and sweep helpers.

Experiments read their trial count from the ``REPRO_TRIALS`` environment
variable (default 5) so benchmark runs can trade precision for speed
without code changes (``REPRO_TRIALS=2 pytest benchmarks/``), and their
execution engine from ``REPRO_WORKERS`` (default 1 = serial, bit-identical
to the seed; >1 fans trials out across that many worker processes).
Every job they dispatch is stamped with ``ExperimentSettings.run``, the
resolved :class:`~repro.core.settings.RunSettings` (default: the
``REPRO_*`` environment), so a grid's results never depend on which
process runs which episode.

The sweep helpers are grid-shaped on purpose: an experiment declares its
full grid of cells up front (:class:`GridCell`) and :func:`measure_grid`
flattens cells x trials into **one streaming wave** of picklable jobs —
every job in the pool at once, no barrier at any cell boundary — then
reassembles results per cell in submission order, so the aggregates are
byte-identical to a serial run while a straggler cell never idles the
workers that finished the light cells around it.

Dispatch routes through the checkpoint ledger (:mod:`repro.core.fleet`)
when ``REPRO_LEDGER`` is set: completed episodes append to the ledger as
they finish, and a restart restores them instead of re-running them.
With the knob unset the wave goes straight to the settings' executor.

Per-deployment token spend flows from every episode into the section's
:class:`CostMeter` (thread-local, so ``--concurrent-sections`` keeps
each figure's bill separate), which the suite renders as a cost footer
per figure.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.config import SystemConfig
from repro.core.envknobs import int_knob
from repro.core.executor import EXECUTOR_KINDS, TrialExecutor, TrialJob, get_executor
from repro.core.fleet import fleet_from_env
from repro.core.metrics import AggregateResult, EpisodeResult, aggregate
from repro.core.runner import build_task, trial_jobs
from repro.core.settings import RunSettings

DEFAULT_TRIALS = 5
DEFAULT_WORKERS = 1


def trials_from_env(default: int = DEFAULT_TRIALS) -> int:
    """Trial count override from ``REPRO_TRIALS`` (>=1)."""
    return int_knob("REPRO_TRIALS", default)


def workers_from_env(default: int = DEFAULT_WORKERS) -> int:
    """Worker count override from ``REPRO_WORKERS`` (>=1; 1 = serial)."""
    return int_knob("REPRO_WORKERS", default)


def executor_from_env() -> str:
    """Executor kind implied by ``REPRO_WORKERS``: parallel iff workers > 1."""
    return "parallel" if workers_from_env() > 1 else "serial"


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by all figure experiments."""

    n_trials: int = field(default_factory=trials_from_env)
    base_seed: int = 2025
    difficulty: str = "medium"
    #: Execution engine: "serial" or "parallel" (default follows
    #: ``REPRO_WORKERS``: serial unless it is set above 1).
    executor: str = field(default_factory=executor_from_env)
    #: Worker processes for the parallel executor (ignored when serial).
    max_workers: int = field(default_factory=workers_from_env)
    #: Run settings every dispatched job carries (default: the
    #: environment's); each cell's config pin applies on top.
    run: RunSettings = field(default_factory=RunSettings.from_env)

    def __post_init__(self) -> None:
        if self.executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"executor must be one of {EXECUTOR_KINDS}, got {self.executor!r}"
            )
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")

    def make_executor(self) -> TrialExecutor:
        """The (shared, pooled) executor these settings select."""
        return get_executor(self.executor, self.max_workers)


# ---------------------------------------------------------------------- #
# Per-section cost metering
# ---------------------------------------------------------------------- #


class CostMeter:
    """Per-deployment token totals for one report section.

    Every episode dispatched while a meter is active (see
    :func:`metered`) contributes its ``deployment_tokens``; the suite
    renders the totals as a cost footer per figure.  Token counts are
    seeded and deterministic, so — unlike wall-clock timing lines — the
    footer is byte-identical across serial, parallel, and resumed runs.
    """

    def __init__(self) -> None:
        self._tokens: dict[str, list[int]] = {}

    def add_results(self, results: list[EpisodeResult]) -> None:
        for result in results:
            for model, (prompt, output) in result.deployment_tokens.items():
                bucket = self._tokens.setdefault(model, [0, 0])
                bucket[0] += prompt
                bucket[1] += output

    def totals(self) -> dict[str, tuple[int, int]]:
        return {
            model: (prompt, output)
            for model, (prompt, output) in sorted(self._tokens.items())
        }

    @property
    def empty(self) -> bool:
        return not self._tokens

    def describe(self) -> str:
        """One-line cost footer: total dollars plus per-deployment split."""
        from repro.llm.costs import cost_breakdown

        costs = cost_breakdown(self.totals())
        total = sum(costs.values())
        parts = ", ".join(f"{model} ${cost:.4f}" for model, cost in costs.items())
        return f"LLM serving cost: ${total:.4f}  ({parts})"


_ACTIVE_METER = threading.local()


@contextmanager
def metered() -> Iterator[CostMeter]:
    """Collect deployment token spend for everything dispatched inside.

    Thread-local, so concurrent suite sections (each section runs wholly
    on its own thread) meter independently.  Nesting restores the outer
    meter on exit; the inner scope's episodes bill to the inner meter
    only.
    """
    meter = CostMeter()
    previous = getattr(_ACTIVE_METER, "meter", None)
    _ACTIVE_METER.meter = meter
    try:
        yield meter
    finally:
        _ACTIVE_METER.meter = previous


def _record_cost(results: list[EpisodeResult]) -> None:
    meter = getattr(_ACTIVE_METER, "meter", None)
    if meter is not None:
        meter.add_results(results)


# ---------------------------------------------------------------------- #
# Grid dispatch
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class GridCell:
    """One experiment cell: a config plus its per-cell task overrides."""

    config: SystemConfig
    difficulty: str | None = None
    n_agents: int | None = None
    horizon: int | None = None


def _cell_jobs(cell: GridCell, settings: ExperimentSettings) -> list[TrialJob]:
    return trial_jobs(
        cell.config,
        settings.n_trials,
        difficulty=cell.difficulty or settings.difficulty,
        n_agents=cell.n_agents,
        base_seed=settings.base_seed,
        horizon=cell.horizon,
        settings=settings.run,
    )


def dispatch_jobs(
    jobs: list[TrialJob], settings: ExperimentSettings
) -> list[EpisodeResult]:
    """Run one streaming wave of jobs; results in submission order.

    The single dispatch seam for every experiment: when ``REPRO_LEDGER``
    is set the wave routes through the fleet runner (checkpoint/resume),
    otherwise straight through the settings' executor.  Either way every
    job is in flight together — no intermediate barriers — and the
    episode stream feeds the active :class:`CostMeter`.
    """
    executor = settings.make_executor()
    fleet = fleet_from_env()
    if fleet is not None:
        results = fleet.run_jobs(jobs, executor)
    else:
        results = executor.run_jobs(jobs)
    _record_cost(results)
    return results


def measure(
    config: SystemConfig,
    settings: ExperimentSettings,
    difficulty: str | None = None,
    n_agents: int | None = None,
    horizon: int | None = None,
) -> AggregateResult:
    """One experiment cell: ``n_trials`` aggregated episodes."""
    cell = GridCell(
        config=config, difficulty=difficulty, n_agents=n_agents, horizon=horizon
    )
    return measure_grid([cell], settings)[0]


def measure_grid(
    cells: list[GridCell], settings: ExperimentSettings
) -> list[AggregateResult]:
    """Measure every cell of a grid through one streaming wave.

    All cells' trials are flattened into a single job list (cell-major,
    seed-minor — the exact order the seed code ran them serially) and
    submitted to the pool together, so a straggler cell shares the
    workers with every cell behind it; results are regrouped per cell in
    submission order and aggregated, making the output byte-identical to
    the serial run.  Output order matches input cell order.
    """
    jobs = []
    spans = []
    for cell in cells:
        cell_jobs = _cell_jobs(cell, settings)
        spans.append(len(cell_jobs))
        jobs.extend(cell_jobs)
    results = dispatch_jobs(jobs, settings)
    aggregates = []
    cursor = 0
    for span in spans:
        aggregates.append(aggregate(results[cursor : cursor + span]))
        cursor += span
    return aggregates


def episode_grid(
    cells: list[GridCell], settings: ExperimentSettings
) -> list[EpisodeResult]:
    """Run one episode per cell (at ``settings.base_seed``) in one wave.

    For experiments that need raw per-episode traces (e.g. Fig. 6 token
    series) rather than aggregates.
    """
    jobs = []
    for cell in cells:
        task = build_task(
            cell.config,
            difficulty=cell.difficulty or settings.difficulty,
            n_agents=cell.n_agents,
            seed=settings.base_seed,
            horizon=cell.horizon,
        )
        jobs.append(
            TrialJob(
                config=cell.config,
                task=task,
                seed=settings.base_seed,
                settings=settings.run,
            )
        )
    return dispatch_jobs(jobs, settings)
