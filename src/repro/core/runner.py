"""Episode and trial runners: the library's main entry points.

``run_episode`` executes one seeded episode of a configured system;
``run_trials`` repeats it across independent seeds and aggregates —
the unit of measurement for every figure in the paper.  Trials are
independent, so ``run_trials`` can fan them out across processes via a
:class:`~repro.core.executor.TrialExecutor`; the default serial executor
reproduces the seed behaviour bit for bit.

``build_loop`` and ``trial_jobs`` take an optional ``settings``
(:class:`~repro.core.settings.RunSettings`); without one — and always
for ``run_episode`` / ``run_trials`` — the current context's apply
(``with settings.bind(...)``), else the environment's.  The loop
resolves them under the config's pins and binds them while it builds
the episode; its components keep what they read.

The per-step pipeline a built loop drives is *delivery-staged*: perceive
all agents, stage every composed message on the step's
:class:`~repro.core.bus.DeliveryBus` (prompt-visible immediately, modeled
latency charged in place), flush the bus — one batched belief merge and
one batched dialogue-memory commit per receiver — then plan, execute,
and reflect.

Every LLM call inside that pipeline is served by the loop's
:class:`~repro.llm.scheduler.InferenceScheduler`: per-call dispatch by
default (byte-identical), or occupancy-aware batches per phase under
``serve="batched"`` / the Rec. 1 ``batching`` optimization — which
changes modeled latency only, never task outcomes or token counts.
"""

from __future__ import annotations

from repro.core.config import SystemConfig
from repro.core.executor import SerialExecutor, TrialExecutor, TrialJob
from repro.core.metrics import AggregateResult, EpisodeResult, aggregate
from repro.core.paradigms import PARADIGM_LOOPS, ParadigmLoop
from repro.core.seeding import spawn_trial_seeds
from repro.core.settings import RunSettings, current
from repro.core.types import TaskSpec
from repro.envs.tasks import make_task


def build_task(
    config: SystemConfig,
    difficulty: str = "medium",
    n_agents: int | None = None,
    seed: int = 0,
    horizon: int | None = None,
) -> TaskSpec:
    """Default task for a system config (its env + declared team size)."""
    return make_task(
        config.env_name,
        difficulty=difficulty,
        n_agents=n_agents if n_agents is not None else config.default_agents,
        seed=seed,
        horizon=horizon,
        **config.env_params,
    )


def build_loop(
    config: SystemConfig,
    task: TaskSpec,
    seed: int = 0,
    settings: RunSettings | None = None,
) -> ParadigmLoop:
    """Instantiate the paradigm loop, honouring the hierarchy override.

    A multi-agent config with ``hierarchy_cluster_size`` set runs under
    the clustered cooperative loop (Recommendation 9) regardless of its
    base paradigm.
    """
    if config.is_multi_agent and config.optimizations.hierarchy_cluster_size > 0:
        from repro.optim.hierarchy import HierarchicalLoop

        return HierarchicalLoop(config, task, seed, settings)
    loop_cls = PARADIGM_LOOPS[config.paradigm]
    return loop_cls(config, task, seed, settings)


def run_episode(
    config: SystemConfig,
    task: TaskSpec | None = None,
    seed: int = 0,
    difficulty: str = "medium",
    n_agents: int | None = None,
) -> EpisodeResult:
    """Run one seeded episode and return its metrics."""
    if task is None:
        task = build_task(config, difficulty=difficulty, n_agents=n_agents, seed=seed)
    return build_loop(config, task, seed).run()


def trial_jobs(
    config: SystemConfig,
    n_trials: int,
    difficulty: str = "medium",
    n_agents: int | None = None,
    base_seed: int = 0,
    horizon: int | None = None,
    settings: RunSettings | None = None,
) -> list[TrialJob]:
    """Picklable work items for ``n_trials`` seeded episodes, seed-ordered.

    Tasks and settings are resolved eagerly in the parent process (task
    construction is cheap and deterministic in the seed), so workers
    receive fully specified jobs.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1: {n_trials}")
    base = settings if settings is not None else current()
    jobs = []
    for trial_seed in spawn_trial_seeds(base_seed, n_trials):
        task = build_task(
            config,
            difficulty=difficulty,
            n_agents=n_agents,
            seed=trial_seed,
            horizon=horizon,
        )
        jobs.append(
            TrialJob(config=config, task=task, seed=trial_seed, settings=base)
        )
    return jobs


def run_trials(
    config: SystemConfig,
    n_trials: int = 8,
    difficulty: str = "medium",
    n_agents: int | None = None,
    base_seed: int = 0,
    horizon: int | None = None,
    executor: TrialExecutor | None = None,
) -> AggregateResult:
    """Run ``n_trials`` independent episodes and aggregate the metrics.

    ``executor`` selects the execution engine; ``None`` means serial,
    which is bit-identical to the seed implementation.  Results are
    aggregated in spawn-seed order regardless of worker completion
    order, so serial and parallel runs agree exactly.
    """
    jobs = trial_jobs(
        config,
        n_trials,
        difficulty=difficulty,
        n_agents=n_agents,
        base_seed=base_seed,
        horizon=horizon,
    )
    runner = executor if executor is not None else SerialExecutor()
    return aggregate(runner.run_jobs(jobs))
