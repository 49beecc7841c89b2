"""Episode and trial runners: the library's main entry points.

``run_episode`` executes one seeded episode of a configured system;
``run_trials`` repeats it across independent seeds and aggregates —
the unit of measurement for every figure in the paper.  Trials are
independent, so ``run_trials`` dispatches them
(:func:`repro.core.fleet.dispatch`) through a
:class:`~repro.core.executor.TrialExecutor` that can fan them out across
processes; the default serial executor reproduces the seed behaviour
bit for bit.

A system config, a task and a seed are the whole input of an episode:
the loop reads the serving mode and overlap from
``config.optimizations`` while it builds and hands the mode to its
scheduler.

The per-step pipeline a built loop drives is *delivery-staged*: perceive
all agents, stage every composed message on the loop's
:class:`~repro.core.bus.DeliveryBus` (prompt-visible immediately, modeled
latency charged in place), flush the bus — index the staged messages
once, then merge each receiver's beliefs and dialogue memory from that
index slot by slot — then plan, execute, and reflect.  The bus alone
holds what is staged, and the loop refuses to end a step with a
delivery still staged.

Every LLM call inside that pipeline is served by the loop's
:class:`~repro.llm.scheduler.InferenceScheduler`: per-call dispatch by
default (byte-identical), or occupancy-aware batches per phase under
``serve_mode="batched"`` (the Rec. 1 ``with_batching`` transform) —
which changes modeled latency only, never task outcomes or token counts.
"""

from __future__ import annotations

from repro.core.config import SystemConfig
from repro.core.executor import SerialExecutor, TrialExecutor, TrialJob
from repro.core.fleet import dispatch
from repro.core.metrics import AggregateResult, EpisodeResult, aggregate
from repro.core.paradigms import PARADIGM_LOOPS, HierarchicalLoop, ParadigmLoop
from repro.core.seeding import spawn_trial_seeds
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
) -> ParadigmLoop:
    """Instantiate the paradigm loop, honouring the hierarchy override.

    A config with ``hierarchy_cluster_size`` set (multi-agent only, which
    :class:`~repro.core.config.SystemConfig` enforces) runs under the
    clustered cooperative loop (Recommendation 9) regardless of its base
    paradigm.  That holds for a hybrid system too: Rec. 9 replaces the
    hybrid loop's feedback round by design.
    """
    if config.optimizations.hierarchy_cluster_size > 0:
        return HierarchicalLoop(config, task, seed)
    loop_cls = PARADIGM_LOOPS[config.paradigm]
    return loop_cls(config, task, seed)


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
) -> list[TrialJob]:
    """Picklable work items for ``n_trials`` seeded episodes, seed-ordered.

    Tasks are resolved eagerly in the parent process (task construction
    is cheap and deterministic in the seed), so workers receive fully
    specified jobs.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1: {n_trials}")
    jobs = []
    for trial_seed in spawn_trial_seeds(base_seed, n_trials):
        task = build_task(
            config,
            difficulty=difficulty,
            n_agents=n_agents,
            seed=trial_seed,
            horizon=horizon,
        )
        jobs.append(TrialJob(config=config, task=task, seed=trial_seed))
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
    return aggregate(dispatch(jobs, executor or SerialExecutor()))
