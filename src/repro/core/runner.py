"""Episode runners: build a configured system's task and loop, run it.

``run_episode`` executes one seeded episode of a configured system.
``trial_jobs`` turns a config into picklable, seed-ordered work items
(:class:`~repro.core.executor.TrialJob`); a grid of them runs through
``repro.experiments.common.measure_grid``, the one way to measure trials,
and workers rebuild each episode with ``build_loop``.  ``build_task`` is
the one place a task's team size is resolved, under the config's rule.

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
Rec. 1's ``with_optimizations(serve_mode="batched")`` — which changes
modeled latency only, never task outcomes or token counts.
"""

from __future__ import annotations

from repro.core.config import SystemConfig
from repro.core.executor import TrialJob
from repro.core.metrics import EpisodeResult
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
    """Default task for a system config (its env + declared team size).

    ``n_agents`` overrides the declared team size, under the config's
    own rule: a multi-agent system refuses fewer than two agents.
    """
    if n_agents is None:
        n_agents = config.default_agents
    config.check_team_size(n_agents)
    return make_task(
        config.env_name,
        difficulty=difficulty,
        n_agents=n_agents,
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

