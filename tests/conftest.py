"""Shared fixtures for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from repro.core.beliefs import DeliveryIndex
from repro.core.clock import ModuleName, SimClock
from repro.core.config import SystemConfig
from repro.core.metrics import MetricsCollector
from repro.core.modules.base import ModuleContext
from repro.core.modules.memory import (
    RETRIEVE_BASE_SECONDS,
    RETRIEVE_PER_ENTRY_SECONDS,
    RetrievedMemory,
)
from repro.core.seeding import rng_for
from repro.core.synthetic import sleep_runner
from repro.core.types import TaskSpec
from repro.envs import make_env, make_task
from repro.llm.scheduler import InferenceScheduler

#: Hypothesis profiles.  ``repro`` (every run's default) draws the same
#: examples each time and keeps no example database, so a failure always
#: replays; tests keep their own ``max_examples``.  ``deep`` draws ten
#: times the default count of fresh random examples for a local soak:
#: ``pytest --hypothesis-profile=deep`` (a failure prints its
#: ``@reproduce_failure`` blob).
settings.register_profile("repro", derandomize=True, database=None)
settings.register_profile(
    "deep", max_examples=1000, derandomize=False, database=None, print_blob=True
)


def pytest_configure(config) -> None:
    if not config.getoption("--hypothesis-profile"):
        settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def metrics() -> MetricsCollector:
    return MetricsCollector(workload="test", horizon=50)


def percall_scheduler(clock: SimClock, metrics: MetricsCollector) -> InferenceScheduler:
    """A standalone module stack's serving layer: every submit dispatches
    at once and charges ``clock``, as the loop's default mode does."""
    return InferenceScheduler(clock, metrics, mode="percall")


def with_serve_mode(config: SystemConfig, serve_mode: str, overlap: bool = False) -> SystemConfig:
    """``config`` served as given, under its own name (the ``repro.optim``
    transforms rename it ``<name>-opt``, and results carry the name)."""
    optimizations = replace(config.optimizations, serve_mode=serve_mode, overlap=overlap)
    return replace(config, optimizations=optimizations)


def env_rng(task: TaskSpec) -> np.random.Generator:
    """A standalone environment's generator, derived from the task's seed."""
    return rng_for(task.seed, "env", task.env_name)


@pytest.fixture
def context(clock, metrics, rng) -> ModuleContext:
    return ModuleContext(
        agent="agent_0",
        clock=clock,
        metrics=metrics,
        rng=rng,
        scheduler=percall_scheduler(clock, metrics),
        step=1,
    )


def crash_runner(job, seeds: frozenset[int] = frozenset()):
    """:func:`~repro.core.synthetic.sleep_runner`, dying on ``seeds``.

    Arm it as ``functools.partial(crash_runner, seeds=frozenset({...}))``:
    the partial of a module-level function pickles, so a fork-started
    pool's workers receive the kill set with each job.
    """
    if job.seed in seeds:
        raise RuntimeError(f"synthetic crash injected at seed {job.seed}")
    return sleep_runner(job)


def linear_retrieve(memory, step: int) -> RetrievedMemory:
    """``MemoryModule.retrieve`` by full scans of every store.

    The reference the index-served retrieval must equal, its latency
    charge and rng draws included.  Pin a module to it with
    ``memory.retrieve = functools.partial(linear_retrieve, memory)``.
    """
    start = max(0, step - memory.capacity_steps)
    observations = [fact for fact in memory._observations if fact.step >= start]
    actions = [record for record in memory._actions if record.step >= start]
    dialogue = [message for message in memory._dialogue if message.step >= start]
    scanned = len(observations) + len(actions) + len(dialogue)
    if not memory.dual:
        scanned += len(memory._static)
    memory.context.clock.advance(
        RETRIEVE_BASE_SECONDS + RETRIEVE_PER_ENTRY_SECONDS * scanned,
        ModuleName.MEMORY,
        phase="retrieve",
    )
    confused = memory._draw_confusion(step)
    return RetrievedMemory(
        facts=memory._resolve_slots(observations, confused),
        action_records=actions,
        dialogue=dialogue,
        scanned_entries=scanned,
        confused=confused,
    )


def commit_alone(memory, messages) -> None:
    """Commit ``messages`` to ``memory`` in this order, as a flush that
    addressed them all to this one receiver: from their own index."""
    index = DeliveryIndex(messages, [()] * len(messages))
    memory.commit_staged_messages(index, [True] * len(messages))


def small_env(name: str, difficulty: str = "easy", n_agents: int = 1, seed: int = 0, **params):
    """Convenience environment factory for tests."""
    task = make_task(name, difficulty=difficulty, n_agents=n_agents, seed=seed, **params)
    return make_env(task, env_rng(task))


@pytest.fixture
def household_env():
    return small_env("household")


@pytest.fixture
def transport_env():
    return small_env("transport", n_agents=2)


@pytest.fixture
def boxworld_env():
    return small_env("boxworld", n_agents=3)
