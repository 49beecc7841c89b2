"""Sensing module: perception-model-filtered observation of the world.

Wraps a :class:`~repro.perception.models.PerceptionProfile`: ground-truth
visible facts pass through detection noise (finite recall, occasional
mislabels) and the perception latency is charged to the SENSING budget.
Systems without a sensing module (Table II's ✗ entries, e.g. MindAgent)
receive the simulator's symbolic state directly at negligible cost.

Hot-path staging (the ``hotpath`` run setting): the mislabel distractor
vocabulary (``env.location_vocabulary()``) is episode-static for every
shipped environment — room layouts never change mid-episode — so the
module fetches it once per episode instead of once per step per agent;
the detector itself consumes the identical rng stream either way (see
:mod:`repro.perception.detector`).  Environments with a dynamic location
vocabulary must not rely on the hot path, which is the documented
contract of the staging.

Detector mode: the module captures the run settings' ``detector`` at
construction (``loop`` default / ``vector`` batched draws; a config's
``detector_mode`` pin is already applied there — see
:mod:`repro.core.settings`, and :mod:`repro.perception.detector` for the
draw-count contract and byte-identity waiver).
"""

from __future__ import annotations

from repro.core.clock import ModuleName
from repro.core.modules.base import ModuleContext
from repro.core.settings import current
from repro.core.types import Fact, Observation
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
        settings = current()
        self._fast = settings.hotpath
        self._distractors: list[str] | None = None
        # Episode-static: the detector cannot change between frames.
        self.detector_mode = settings.detector

    def _distractor_values(self, env: Environment) -> list[str]:
        """Mislabel vocabulary, fetched once per episode on the hot path."""
        if not self._fast:
            return env.location_vocabulary()
        distractors = self._distractors
        if distractors is None:
            distractors = env.location_vocabulary()
            self._distractors = distractors
        return distractors

    def sense(self, env: Environment) -> tuple[Fact, ...]:
        """One perception pass from the agent's current viewpoint."""
        ground_facts = env.visible_facts(self.context.agent)
        if self.profile is None:
            self.context.clock.advance(
                SYMBOLIC_FEED_SECONDS,
                ModuleName.SENSING,
                phase="symbolic",
                agent=self.context.agent,
            )
            return tuple(ground_facts)
        result = detect(
            ground_facts,
            self.profile,
            self.context.rng,
            distractor_values=self._distractor_values(env),
            mode=self.detector_mode,
        )
        self.context.clock.advance(
            result.latency,
            ModuleName.SENSING,
            phase=self.profile.name,
            agent=self.context.agent,
        )
        return result.facts

    def observation(self, env: Environment, facts: tuple[Fact, ...]) -> Observation:
        return env.observation(self.context.agent, facts)
