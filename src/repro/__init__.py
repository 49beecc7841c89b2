"""repro: reproduction of "Generative AI in Embodied Systems" (ISPASS 2025).

A system-level simulation and benchmarking suite for LLM-driven embodied
agents.  The public API re-exports the pieces a downstream user needs:

- :func:`run_episode` — execute one seeded episode of a configured system,
- :data:`repro.workloads.WORKLOAD_SUITE` — the 14 benchmarked systems,
- :class:`SystemConfig` — declare custom systems,
- :mod:`repro.experiments` — regenerate every paper table and figure;
  :func:`repro.experiments.common.measure_grid` is the one way to measure
  a grid of (system, task, team size, seed) cells.
"""

from repro.core import (
    AggregateResult,
    EpisodeResult,
    FaultKind,
    MemoryConfig,
    ModuleName,
    OptimizationConfig,
    ParallelExecutor,
    SerialExecutor,
    SystemConfig,
    TaskSpec,
    TrialExecutor,
    run_episode,
)
from repro.envs import make_env, make_task
from repro.workloads import WORKLOAD_SUITE, get_workload, list_workloads

__version__ = "1.0.0"

__all__ = [
    "AggregateResult",
    "EpisodeResult",
    "FaultKind",
    "MemoryConfig",
    "ModuleName",
    "OptimizationConfig",
    "ParallelExecutor",
    "SerialExecutor",
    "SystemConfig",
    "TaskSpec",
    "TrialExecutor",
    "WORKLOAD_SUITE",
    "__version__",
    "get_workload",
    "list_workloads",
    "make_env",
    "make_task",
    "run_episode",
]
