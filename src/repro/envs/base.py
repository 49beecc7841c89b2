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
- **Grounded execution**: ``execute(agent, subgoal, rng)`` is one
  dispatcher for every environment: ``idle`` is :data:`IDLE`, any other
  subgoal runs the environment's ``_do_<name>(agent, subgoal, rng)``
  handler, and a name without a handler fails as an unknown subgoal.  A
  handler runs real low-level planning (A*/RRT/grasp), mutates the
  world, and reports primitive counts, compute cost, and actuation time
  so the latency ledger matches the paper's execution-module accounting.

Two contracts let the episode loop reuse work across steps; an
environment that breaks one produces wrong results, and the committed
goldens (``tests/core/goldens/``) catch it for the shipped ones:

- ``static_facts()`` is read once, when an agent is built: memory keeps
  it as the long-term store and every step's beliefs start from it.
- ``candidates()`` is a pure function of the world state and the beliefs
  it reads; equal options are one interned object per episode
  (:meth:`Environment.option`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.beliefs import Beliefs
from repro.core.errors import FaultKind
from repro.core.types import Candidate, Fact, Observation, Subgoal, TaskSpec
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


#: What ``idle`` does in every environment: one primitive, no planning
#: work, half a second of actuation, no change to the world.
IDLE = ExecutionOutcome(success=True, primitive_count=1, compute=ZERO_COST, actuation_seconds=0.5)


@dataclass
class EnvState:
    """Bookkeeping shared by all environments."""

    step_index: int = 0
    claims: dict[str, object] = field(default_factory=dict)  # resource -> holder(s)


class Environment(abc.ABC):
    """Base class for task environments.

    Subclasses populate ``agents`` and goal structures in ``__init__`` from
    the :class:`~repro.core.types.TaskSpec` and a seeded generator,
    implement the abstract affordance hooks, and write one
    ``_do_<name>`` handler per subgoal they offer besides ``idle``.
    """

    name: str = "abstract"

    def __init__(self, task: TaskSpec, rng: np.random.Generator) -> None:
        self.task = task
        self.rng = rng
        self.agents: list[str] = [f"agent_{i}" for i in range(task.n_agents)]
        self.state = EnvState()
        # Episode-scoped intern table of candidate options (see option()):
        # (name, target, destination, utility, feasible, fault) -> the one
        # Candidate with those values.
        self._options: dict[tuple, Candidate] = {}
        self._hallucinations: dict[int, tuple[Candidate, ...]] = {}

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
    def visible_facts(self, agent: str) -> Sequence[Fact]:
        """Ground-truth facts perceivable from the agent's position.

        Callers must not mutate the result: an environment may hand one
        tuple to every agent at a viewpoint until the world changes.
        """

    @abc.abstractmethod
    def static_facts(self) -> list[Fact]:
        """Facts every agent knows from the start and that never change
        within an episode (targets, recipes, floor plan)."""

    @abc.abstractmethod
    def agent_position(self, agent: str) -> str:
        """Human-readable position label for prompts."""

    def observation(self, agent: str, position: str, facts: tuple[Fact, ...]) -> Observation:
        """Wrap (already noise-filtered) facts seen from ``position``."""
        return Observation(agent=agent, step=self.state.step_index, position=position, facts=facts)

    @abc.abstractmethod
    def location_vocabulary(self) -> list[str]:
        """Plausible location labels, used as mislabel distractors.

        The sensing module asks for them on every perception pass, so
        they may change within an episode.
        """

    # ------------------------------------------------------------------ #
    # Affordances and execution
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def candidates(self, agent: str, beliefs: Beliefs) -> Sequence[Candidate]:
        """Enumerate subgoal options given the agent's beliefs.

        Implementations should include (a) productive options with
        ground-truth utilities, (b) an explore/idle fallback, and (c) a
        few infeasible/hallucinated options as fault-injection targets.
        Build each option with :meth:`option` and return a tuple.
        """

    def option(
        self,
        name: str,
        target: str = "",
        destination: str = "",
        utility: float = 0.0,
        feasible: bool = True,
        fault: FaultKind | None = None,
    ) -> Candidate:
        """The episode's one :class:`Candidate` with these values.

        Options recur step after step, so each distinct option is built
        once per environment instance and handed back from then on; its
        subgoal's memoized token count is then computed once as well.
        """
        key = (name, target, destination, utility, feasible, fault)
        candidate = self._options.get(key)
        if candidate is None:
            candidate = self._options[key] = Candidate(
                Subgoal(name, target, destination), utility, feasible, fault
            )
        return candidate

    def execute(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        """Lower ``subgoal`` to primitives, run them, mutate the world.

        ``idle`` returns :data:`IDLE`; any other subgoal runs
        ``self._do_<name>(agent, subgoal, rng)``, so an environment only
        writes its handlers.  A name without a handler fails with
        ``unknown subgoal '<name>'``.
        """
        if subgoal.name == "idle":
            return IDLE
        handler = getattr(self, f"_do_{subgoal.name}", None)
        if handler is None:
            return ExecutionOutcome.failure(f"unknown subgoal {subgoal.name!r}")
        return handler(agent, subgoal, rng)

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

    def hallucination_candidates(self, count: int = 2) -> tuple[Candidate, ...]:
        """Standard fault-injection candidates naming non-existent objects.

        The same tuple of interned options for every call with ``count``.
        """
        options = self._hallucinations.get(count)
        if options is None:
            options = self._hallucinations[count] = tuple(
                self.option(
                    "fetch",
                    f"imaginary_object_{index}",
                    feasible=False,
                    fault=FaultKind.HALLUCINATION,
                )
                for index in range(count)
            )
        return options
