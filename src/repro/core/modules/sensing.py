"""Sensing module: perception-model-filtered observation of the world.

Wraps a :class:`~repro.perception.models.PerceptionProfile`: ground-truth
visible facts pass through detection noise (finite recall, occasional
mislabels) and the perception latency is charged to the SENSING budget.
Systems without a sensing module (Table II's ✗ entries, e.g. MindAgent)
receive the simulator's symbolic state directly at negligible cost.

Each pass asks the environment for its mislabel distractor vocabulary
(``env.location_vocabulary()``), so a vocabulary that changes within an
episode reaches the next pass.
"""

from __future__ import annotations

from repro.core.clock import ModuleName
from repro.core.modules.base import ModuleContext
from repro.core.types import Fact
from repro.envs.base import Environment
from repro.perception.detector import detect
from repro.perception.models import PerceptionProfile, get_perception

#: Cost of reading simulator-provided symbolic state (no model inference).
SYMBOLIC_FEED_SECONDS = 0.002


class SensingModule:
    """Perceive the environment through a (possibly absent) vision model."""

    def __init__(self, context: ModuleContext, model: str | None) -> None:
        self.context = context
        self.profile: PerceptionProfile | None = (
            get_perception(model) if model is not None else None
        )

    def sense(self, env: Environment) -> tuple[Fact, ...]:
        """One perception pass from the agent's current viewpoint."""
        ground_facts = env.visible_facts(self.context.agent)
        if self.profile is None:
            self.context.clock.advance(
                SYMBOLIC_FEED_SECONDS, ModuleName.SENSING, phase="symbolic"
            )
            return tuple(ground_facts)
        profile = self.profile
        facts = detect(
            ground_facts,
            profile,
            self.context.rng,
            distractor_values=env.location_vocabulary(),
        )
        self.context.clock.advance(profile.latency_s, ModuleName.SENSING, phase=profile.name)
        return facts
