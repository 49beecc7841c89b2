"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.clock import SimClock
from repro.core.metrics import MetricsCollector
from repro.core.modules.base import ModuleContext
from repro.envs import make_env, make_task

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


@pytest.fixture
def context(clock, metrics, rng) -> ModuleContext:
    ctx = ModuleContext(agent="agent_0", clock=clock, metrics=metrics, rng=rng)
    ctx.set_step(1)
    return ctx


def small_env(name: str, difficulty: str = "easy", n_agents: int = 1, seed: int = 0, **params):
    """Convenience environment factory for tests."""
    task = make_task(name, difficulty=difficulty, n_agents=n_agents, seed=seed, **params)
    return make_env(task)


@pytest.fixture
def household_env():
    return small_env("household")


@pytest.fixture
def transport_env():
    return small_env("transport", n_agents=2)


@pytest.fixture
def boxworld_env():
    return small_env("boxworld", n_agents=3)
