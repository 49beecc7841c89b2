"""Abstract environment interface for all task substrates.

Every environment family (household, transport, cuisine, boxworld,
mineworld, kitchen, tabletop) implements this contract.  Key design points:

- **Partial observability**: ``visible_facts(agent)`` returns only what the
  agent could perceive from its current position; perception noise is
  applied on top by the sensing module.
- **Belief-conditioned affordances**: ``candidates(agent, beliefs)``
  enumerates subgoal options against the agent's *beliefs* (not ground
  truth), so missing memory manifests as exploration candidates and stale
  memory as doomed-but-plausible options.
- **Grounded execution**: ``execute(agent, subgoal, rng)`` runs real
  low-level planning (A*/RRT/action-list/grasp), mutates the world, and
  reports primitive counts, compute cost, and actuation time so the
  latency ledger matches the paper's execution-module accounting.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.beliefs import Beliefs
from repro.core.settings import current
from repro.core.types import Candidate, Fact, Observation, Subgoal, TaskSpec
from repro.envs.candidates import CandidateCache, CandidateSlot, build_all
from repro.planners.costmodel import ComputeCost, ZERO_COST


@dataclass(frozen=True)
class ExecutionOutcome:
    """Result of lowering + executing one subgoal in the world."""

    success: bool
    primitive_count: int
    compute: ComputeCost
    actuation_seconds: float
    reason: str = ""
    progress_delta: float = 0.0

    @classmethod
    def failure(cls, reason: str, actuation_seconds: float = 0.0) -> "ExecutionOutcome":
        return cls(
            success=False,
            primitive_count=0,
            compute=ZERO_COST,
            actuation_seconds=actuation_seconds,
            reason=reason,
        )


@dataclass
class EnvState:
    """Bookkeeping shared by all environments."""

    step_index: int = 0
    claims: dict[str, object] = field(default_factory=dict)  # resource -> holder(s)


class Environment(abc.ABC):
    """Base class for task environments.

    Subclasses populate ``agents`` and goal structures in ``__init__`` from
    the :class:`~repro.core.types.TaskSpec` and a seeded generator, and
    implement the abstract affordance/execution hooks.
    """

    name: str = "abstract"

    def __init__(self, task: TaskSpec, rng: np.random.Generator) -> None:
        self.task = task
        self.rng = rng
        self.agents: list[str] = [f"agent_{i}" for i in range(task.n_agents)]
        self.state = EnvState()
        # Episode-scoped incremental candidate cache (hot path only; see
        # repro.envs.candidates).  Environments that decompose their
        # enumeration into slots get per-slot reuse; the rest fall back
        # to full enumeration through their own ``candidates`` override.
        self._candidate_cache: CandidateCache | None = (
            CandidateCache() if current().hotpath else None
        )
        # Per-step position staging (hot path only): agent positions only
        # change when an agent executes, and every paradigm loop perceives
        # all agents before anyone acts, so the O(n^2) position reads of
        # the observation pass can share one lookup per agent per step.
        # Cleared on tick() and by the execution module after every
        # execute (covering replans and custom loops).
        self._position_cache: dict[str, str] | None = (
            {} if current().hotpath else None
        )
        # candidates() is no longer @abstractmethod (the base class now
        # drives candidate_slots() when provided), so re-create the
        # construction-time failure a forgotten affordance hook used to
        # get from abc.
        if (
            type(self).candidates is Environment.candidates
            and type(self).candidate_slots is Environment.candidate_slots
        ):
            raise TypeError(
                f"{type(self).__name__} must override candidates() or "
                "implement candidate_slots()"
            )

    # ------------------------------------------------------------------ #
    # Time
    # ------------------------------------------------------------------ #

    def tick(self) -> None:
        """Advance environment dynamics by one macro step.

        Called once per macro step before agents act; also clears
        per-step resource claims used for conflict detection.
        """
        self.state.step_index += 1
        self.state.claims.clear()
        if self._position_cache:
            self._position_cache.clear()

    def claim(self, resource: str, agent: str) -> bool:
        """Claim a contended resource for this macro step.

        Returns False when another agent already holds it — the standard
        way simultaneous object/station grabs turn into wasted steps.
        """
        holder = self.state.claims.setdefault(resource, agent)
        return holder == agent

    def claim_slot(self, resource: str, agent: str, capacity: int) -> bool:
        """Claim one of ``capacity`` slots on a shared resource.

        Models physical congestion: a room or station only fits so many
        robots per step, so large teams start blocking each other — the
        crowding component of the paper's scalability decline (Sec. VI).
        """
        key = f"slots:{resource}"
        holders = self.state.claims.setdefault(key, [])  # type: ignore[assignment]
        if agent in holders:
            return True
        if len(holders) >= capacity:
            return False
        holders.append(agent)
        return True

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def visible_facts(self, agent: str) -> list[Fact]:
        """Ground-truth facts perceivable from the agent's position."""

    @abc.abstractmethod
    def agent_position(self, agent: str) -> str:
        """Human-readable position label for prompts."""

    def position_of(self, agent: str) -> str:
        """:meth:`agent_position`, served from the per-step staging cache.

        Use this accessor on read paths (perception, observation
        assembly); it is exactly ``agent_position`` on the reference path
        and one lookup per agent per step on the hot path.
        """
        cache = self._position_cache
        if cache is None:
            return self.agent_position(agent)
        position = cache.get(agent)
        if position is None:
            position = self.agent_position(agent)
            cache[agent] = position
        return position

    def invalidate_positions(self) -> None:
        """Drop staged positions after world mutation (execution module)."""
        if self._position_cache:
            self._position_cache.clear()

    def observation(self, agent: str, facts: tuple[Fact, ...]) -> Observation:
        """Wrap (already noise-filtered) facts into an observation."""
        if self._position_cache is None:
            # Reference path: the seed's per-comparison position reads.
            visible_agents = tuple(
                other
                for other in self.agents
                if other != agent
                and self.agent_position(other) == self.agent_position(agent)
            )
            return Observation(
                agent=agent,
                step=self.state.step_index,
                position=self.agent_position(agent),
                facts=facts,
                visible_agents=visible_agents,
            )
        position = self.position_of(agent)
        visible_agents = tuple(
            other
            for other in self.agents
            if other != agent and self.position_of(other) == position
        )
        return Observation(
            agent=agent,
            step=self.state.step_index,
            position=position,
            facts=facts,
            visible_agents=visible_agents,
        )

    def location_vocabulary(self) -> list[str]:
        """Plausible location labels, used as mislabel distractors."""
        return []

    # ------------------------------------------------------------------ #
    # Affordances and execution
    # ------------------------------------------------------------------ #

    def candidates(self, agent: str, beliefs: Beliefs) -> Sequence[Candidate]:
        """Enumerate subgoal options given the agent's beliefs.

        Implementations should include (a) productive options with
        ground-truth utilities, (b) an explore/idle fallback, and (c) a
        few infeasible/hallucinated options as fault-injection targets.

        Environments either override this directly (seed style, full
        enumeration every call) or implement :meth:`candidate_slots` and
        inherit this driver: on the hot path changed slots are rebuilt
        and unchanged slots reuse last step's candidate objects; on the
        reference path every slot is built fresh, so both paths produce
        element-for-element identical sequences.
        """
        slots = self.candidate_slots(agent, beliefs)
        if slots is None:
            raise NotImplementedError(
                f"{type(self).__name__} must override candidates() or "
                "implement candidate_slots()"
            )
        cache = self._candidate_cache
        if cache is not None:
            return cache.assemble(agent, slots)
        return build_all(slots)

    def candidate_slots(
        self, agent: str, beliefs: Beliefs
    ) -> list[CandidateSlot] | None:
        """Slot decomposition of :meth:`candidates` (``None`` = not adopted).

        Each :class:`~repro.envs.candidates.CandidateSlot` must declare
        *complete* deps — every belief value and every piece of mutable
        environment state its builder reads — and builders must be pure.
        See :mod:`repro.envs.candidates` for the full contract.
        """
        return None

    @abc.abstractmethod
    def execute(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        """Lower ``subgoal`` to primitives, run them, mutate the world."""

    @abc.abstractmethod
    def expected_primitives(self, agent: str, subgoal: Subgoal) -> int:
        """Primitive count the subgoal would need (for no-exec ablation)."""

    # ------------------------------------------------------------------ #
    # Goals
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def goal_progress(self) -> float:
        """Fraction of the task completed, in [0, 1]."""

    def is_success(self) -> bool:
        return self.goal_progress() >= 1.0 - 1e-9

    @abc.abstractmethod
    def describe_task(self) -> str:
        """Natural-language task description for prompt construction."""

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def hallucination_candidates(self, count: int = 2) -> list[Candidate]:
        """Standard fault-injection candidates naming non-existent objects."""
        from repro.core.errors import FaultKind

        return [
            Candidate(
                subgoal=Subgoal(name="fetch", target=f"imaginary_object_{index}"),
                utility=0.0,
                feasible=False,
                fault=FaultKind.HALLUCINATION,
            )
            for index in range(count)
        ]
