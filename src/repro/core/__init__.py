"""Core framework: clock, types, modules, paradigms, runners, metrics."""

from repro.core.agent import EmbodiedAgent
from repro.core.beliefs import Beliefs
from repro.core.clock import LLM_MODULES, MODULE_ORDER, ModuleName, SimClock
from repro.core.config import MemoryConfig, OptimizationConfig, SystemConfig
from repro.core.errors import FaultKind, ReproError, TrialExecutionError
from repro.core.executor import (
    EXECUTOR_KINDS,
    ParallelExecutor,
    SerialExecutor,
    TrialExecutor,
    TrialJob,
    get_executor,
    make_executor,
)
from repro.core.metrics import (
    AggregateResult,
    EpisodeResult,
    MetricsCollector,
    TokenSample,
    aggregate,
)
from repro.core.runner import build_loop, build_task, run_episode, run_trials, trial_jobs
from repro.core.types import (
    Candidate,
    Decision,
    Fact,
    Message,
    Observation,
    StepRecord,
    Subgoal,
    TaskSpec,
)

__all__ = [
    "AggregateResult",
    "Beliefs",
    "Candidate",
    "Decision",
    "EXECUTOR_KINDS",
    "EmbodiedAgent",
    "EpisodeResult",
    "Fact",
    "FaultKind",
    "LLM_MODULES",
    "MODULE_ORDER",
    "MemoryConfig",
    "Message",
    "MetricsCollector",
    "ModuleName",
    "Observation",
    "OptimizationConfig",
    "ParallelExecutor",
    "ReproError",
    "SerialExecutor",
    "SimClock",
    "StepRecord",
    "Subgoal",
    "SystemConfig",
    "TaskSpec",
    "TokenSample",
    "TrialExecutionError",
    "TrialExecutor",
    "TrialJob",
    "aggregate",
    "build_loop",
    "build_task",
    "get_executor",
    "make_executor",
    "run_episode",
    "run_trials",
    "trial_jobs",
]
