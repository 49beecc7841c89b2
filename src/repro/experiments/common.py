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
one stream through the pool, no barrier at any cell boundary — then
reassembles results per cell in submission order, so the aggregates are
byte-identical to a serial run while a straggler cell never idles the
workers that finished the light cells around it.  The steps are public
(:func:`grid_jobs` or :func:`episode_jobs`, :func:`dispatch_jobs`,
:func:`aggregate_grid`) because the suite builds every figure's jobs
first and sends them all as one wave.

Every wave goes through :func:`repro.core.fleet.dispatch`, so a job the
wave repeats (a Fig. 7 cell in Fig. 8's per-call arm, say) runs once.
With ``REPRO_LEDGER`` set, completed episodes also append to the
checkpoint ledger as they finish, and a restart restores them instead
of re-running them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SystemConfig
from repro.core.envknobs import int_knob
from repro.core.executor import EXECUTOR_KINDS, TrialExecutor, TrialJob, get_executor
from repro.core.fleet import dispatch, ledger_from_env
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


def grid_jobs(cells: list[GridCell], settings: ExperimentSettings) -> list[TrialJob]:
    """Every cell's ``n_trials`` jobs, cell-major and seed-minor.

    That is the exact order the seed code ran them serially, so
    :func:`aggregate_grid` can read the results back by position.
    """
    return [job for cell in cells for job in _cell_jobs(cell, settings)]


def aggregate_grid(
    results: list[EpisodeResult], settings: ExperimentSettings
) -> list[AggregateResult]:
    """Aggregate a grid's submission-ordered results, one per cell."""
    trials = settings.n_trials
    return [
        aggregate(results[start : start + trials])
        for start in range(0, len(results), trials)
    ]


def episode_jobs(cells: list[GridCell], settings: ExperimentSettings) -> list[TrialJob]:
    """One job per cell, at ``settings.base_seed`` itself."""
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
    return jobs


def dispatch_jobs(
    jobs: list[TrialJob], settings: ExperimentSettings
) -> list[EpisodeResult]:
    """Run one streaming wave of jobs; results in submission order.

    The single dispatch seam for every experiment: each distinct job
    runs once through the settings' executor, restored from and
    appended to the ``REPRO_LEDGER`` journal when that is set.  The jobs
    share one stream, with no intermediate barriers.
    """
    return dispatch(jobs, settings.make_executor(), ledger_from_env())


def measure_grid(
    cells: list[GridCell], settings: ExperimentSettings
) -> list[AggregateResult]:
    """Measure every cell of a grid through one streaming wave.

    All cells' trials are flattened into a single job list
    (:func:`grid_jobs`) and submitted to the pool together, so a
    straggler cell shares the workers with every cell behind it; results
    are regrouped per cell in submission order and aggregated, making
    the output byte-identical to the serial run.  Output order matches
    input cell order.
    """
    return aggregate_grid(dispatch_jobs(grid_jobs(cells, settings), settings), settings)


def episode_grid(
    cells: list[GridCell], settings: ExperimentSettings
) -> list[EpisodeResult]:
    """Run one episode per cell (at ``settings.base_seed``) in one wave.

    For experiments that need raw per-episode traces (e.g. Fig. 6 token
    series) rather than aggregates.
    """
    return dispatch_jobs(episode_jobs(cells, settings), settings)
