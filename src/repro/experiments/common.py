"""Shared experiment infrastructure: trial settings and sweep helpers.

An experiment runs under the :class:`ExperimentSettings` its caller
passes; the defaults are plain values (five serial trials).  Entry
points (the suite's ``main``, the examples, the benchmarks) resolve
theirs once with :meth:`ExperimentSettings.from_env`, so a shell can
change the trial count and the workers without code changes.  Neither
changes what an episode computes: each cell's system config (its
serving mode included) does, so a grid's results never depend on which
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

from dataclasses import dataclass

from repro.core.config import SystemConfig
from repro.core.envknobs import int_knob
from repro.core.executor import EXECUTOR_KINDS, TrialExecutor, TrialJob, get_executor
from repro.core.fleet import dispatch, ledger_from_env
from repro.core.metrics import AggregateResult, EpisodeResult, aggregate
from repro.core.runner import build_task, trial_jobs

DEFAULT_TRIALS = 5


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by all figure experiments."""

    n_trials: int = DEFAULT_TRIALS
    base_seed: int = 2025
    difficulty: str = "medium"
    #: Execution engine: "serial" or "parallel".
    executor: str = "serial"
    #: Worker processes for the parallel executor (ignored when serial).
    max_workers: int = 1

    def __post_init__(self) -> None:
        if self.executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"executor must be one of {EXECUTOR_KINDS}, got {self.executor!r}"
            )
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")

    @classmethod
    def from_env(cls, n_trials: int = DEFAULT_TRIALS) -> ExperimentSettings:
        """The settings an entry point runs under, from the ``REPRO_*`` knobs.

        ``REPRO_TRIALS`` overrides ``n_trials``; ``REPRO_WORKERS`` sets
        ``max_workers`` and, above 1, the parallel executor.  Call it
        once, at an entry point, and pass the value down.
        """
        workers = int_knob("REPRO_WORKERS", 1)
        return cls(
            n_trials=int_knob("REPRO_TRIALS", n_trials),
            executor="parallel" if workers > 1 else "serial",
            max_workers=workers,
        )

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
    """One job per cell, at ``settings.base_seed`` itself.

    Each job is flagged ``prompt_series``: its result carries Fig. 6's
    per-step prompt series, which no grid job's result holds.
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
        jobs.append(TrialJob(cell.config, task, settings.base_seed, prompt_series=True))
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

    For experiments that need raw per-episode traces (Fig. 6's token
    series, which only these results carry) rather than aggregates.
    """
    return dispatch_jobs(episode_jobs(cells, settings), settings)
