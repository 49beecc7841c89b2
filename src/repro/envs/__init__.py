"""Environment substrates and the environment registry."""

from __future__ import annotations

import numpy as np

from repro.core.types import TaskSpec
from repro.envs.base import Environment, ExecutionOutcome
from repro.envs.boxworld import BoxWorldEnv
from repro.envs.cuisine import CuisineEnv
from repro.envs.household import HouseholdEnv
from repro.envs.kitchen import KitchenEnv
from repro.envs.mineworld import MineWorldEnv
from repro.envs.tabletop import TabletopEnv
from repro.envs.tasks import default_horizon, make_task
from repro.envs.transport import TransportEnv

ENVIRONMENTS: dict[str, type[Environment]] = {
    HouseholdEnv.name: HouseholdEnv,
    TransportEnv.name: TransportEnv,
    CuisineEnv.name: CuisineEnv,
    BoxWorldEnv.name: BoxWorldEnv,
    MineWorldEnv.name: MineWorldEnv,
    KitchenEnv.name: KitchenEnv,
    TabletopEnv.name: TabletopEnv,
}


def make_env(task: TaskSpec, rng: np.random.Generator) -> Environment:
    """Instantiate the environment named by ``task.env_name``."""
    try:
        env_cls = ENVIRONMENTS[task.env_name]
    except KeyError:
        known = ", ".join(sorted(ENVIRONMENTS))
        raise KeyError(f"unknown environment {task.env_name!r}; known: {known}") from None
    return env_cls(task, rng)


__all__ = [
    "BoxWorldEnv",
    "CuisineEnv",
    "ENVIRONMENTS",
    "Environment",
    "ExecutionOutcome",
    "HouseholdEnv",
    "KitchenEnv",
    "MineWorldEnv",
    "TabletopEnv",
    "TransportEnv",
    "default_horizon",
    "make_env",
    "make_task",
]
