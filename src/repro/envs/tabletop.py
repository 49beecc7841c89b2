"""Tabletop environment: RoCoBench substitute for multi-arm manipulation.

A continuous unit-square workspace shared by several fixed-base robot
arms.  Objects must be transported into target zones; each arm only
reaches part of the table, so out-of-reach objects are relayed through a
central exchange region.  Every transport plans a real RRT path around
the other arms' occupancy discs — the execution-latency profile the paper
highlights for RoCo (49.4 % of step time in low-level planning/motion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.beliefs import Beliefs
from repro.core.types import Candidate, Fact, Subgoal, TaskSpec
from repro.envs.base import IDLE, Environment, ExecutionOutcome
from repro.planners.costmodel import ComputeCost
from repro.planners.rrt import CircleObstacle, rrt_plan

ARM_REACH = 0.62
ARM_SPEED_SECONDS_PER_UNIT = 16.0
GRIP_SECONDS = 1.4
EXCHANGE_CENTER = (0.5, 0.5)
EXCHANGE_RADIUS = 0.12
#: Radius of the static occupancy disc each *other* arm contributes.
ARM_OCCUPANCY_RADIUS = 0.07

_DIFFICULTY_SETTINGS = {"easy": 8, "medium": 14, "hard": 20}

_OBJECT_NAMES = ["cube", "cylinder", "prism", "sphere", "cone", "disk", "block"]


@dataclass
class _TableObject:
    name: str
    position: tuple[float, float]
    zone_center: tuple[float, float]
    delivered: bool = False


@dataclass
class _Arm:
    name: str
    base: tuple[float, float]

    def reaches(self, point: tuple[float, float]) -> bool:
        return float(np.hypot(point[0] - self.base[0], point[1] - self.base[1])) <= ARM_REACH


class TabletopEnv(Environment):
    """See module docstring."""

    name = "tabletop"

    def __init__(self, task: TaskSpec, rng: np.random.Generator) -> None:
        super().__init__(task, rng)
        if task.n_agents < 1:
            raise ValueError("tabletop needs at least one arm")
        # Arms spaced around the table edge.
        self._arms: dict[str, _Arm] = {}
        for index, agent in enumerate(self.agents):
            angle = 2.0 * np.pi * index / max(1, len(self.agents))
            base = (
                float(0.5 + 0.45 * np.cos(angle)),
                float(0.5 + 0.45 * np.sin(angle)),
            )
            self._arms[agent] = _Arm(name=agent, base=base)

        count = _DIFFICULTY_SETTINGS[task.difficulty]
        self.objects: dict[str, _TableObject] = {}
        for index in range(count):
            name = f"{_OBJECT_NAMES[index % len(_OBJECT_NAMES)]}_{index}"
            position = (float(rng.uniform(0.08, 0.92)), float(rng.uniform(0.08, 0.92)))
            zone = (float(rng.uniform(0.08, 0.92)), float(rng.uniform(0.08, 0.92)))
            self.objects[name] = _TableObject(name=name, position=position, zone_center=zone)

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #

    def agent_position(self, agent: str) -> str:
        base = self._arms[agent].base
        return f"arm_base_{base[0]:.2f}_{base[1]:.2f}"

    def _region_label(self, point: tuple[float, float]) -> str:
        horizontal = "left" if point[0] < 0.5 else "right"
        vertical = "near" if point[1] < 0.5 else "far"
        return f"{vertical}_{horizontal}_quadrant"

    def visible_facts(self, agent: str) -> list[Fact]:
        """Each arm's wrist camera covers its own reach plus the exchange.

        Far-side objects are invisible until a teammate mentions them or
        they get staged centrally — which is what makes memory and
        communication carry weight for RoCo-style systems.
        """
        arm = self._arms[agent]
        step = self.state.step_index
        facts = []
        for obj in self.objects.values():
            if not (arm.reaches(obj.position) or self._in_exchange(obj.position)):
                continue
            if obj.delivered:
                facts.append(
                    Fact(subject=obj.name, relation="delivered", value="true", step=step)
                )
            else:
                facts.append(
                    Fact(
                        subject=obj.name,
                        relation="located_in",
                        value=self._region_label(obj.position),
                        step=step,
                    )
                )
        return sorted(facts, key=lambda fact: (fact.subject, fact.relation))

    @staticmethod
    def _in_exchange(point: tuple[float, float]) -> bool:
        return (
            float(
                np.hypot(point[0] - EXCHANGE_CENTER[0], point[1] - EXCHANGE_CENTER[1])
            )
            <= EXCHANGE_RADIUS
        )

    def static_facts(self) -> list[Fact]:
        return [
            Fact(
                subject=obj.name,
                relation="zone_in",
                value=self._region_label(obj.zone_center),
            )
            for obj in sorted(self.objects.values(), key=lambda o: o.name)
        ]

    def location_vocabulary(self) -> list[str]:
        return [
            "near_left_quadrant",
            "near_right_quadrant",
            "far_left_quadrant",
            "far_right_quadrant",
        ]

    # ------------------------------------------------------------------ #
    # Affordances
    # ------------------------------------------------------------------ #

    def candidates(self, agent: str, beliefs: Beliefs) -> tuple[Candidate, ...]:
        arm = self._arms[agent]
        option = self.option
        options: list[Candidate] = []
        for obj in self.objects.values():
            if obj.delivered:
                continue
            # An arm can only plan for objects it knows about (seen now,
            # remembered, or reported by a teammate).
            if beliefs.value(obj.name, "located_in") is None:
                continue
            can_reach_object = arm.reaches(obj.position)
            can_reach_zone = arm.reaches(obj.zone_center)
            if can_reach_object and can_reach_zone:
                options.append(option("transport", obj.name, utility=0.95))
            elif can_reach_object:
                if not self._in_exchange(obj.position):
                    options.append(option("stage", obj.name, utility=0.7))
            elif can_reach_zone:
                # Cannot grab it yet: infeasible until staged.
                options.append(option("transport", obj.name, feasible=False))
        options.append(option("idle", utility=0.05))
        options.extend(self.hallucination_candidates(count=1))
        return tuple(options)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _obstacles_for(self, agent: str) -> list[CircleObstacle]:
        return [
            CircleObstacle(x=arm.base[0], y=arm.base[1], radius=ARM_OCCUPANCY_RADIUS)
            for name, arm in self._arms.items()
            if name != agent
        ]

    def _motion(
        self,
        agent: str,
        start: tuple[float, float],
        goal: tuple[float, float],
        rng: np.random.Generator,
    ) -> tuple[bool, ComputeCost, float]:
        result = rrt_plan(
            start=start, goal=goal, obstacles=self._obstacles_for(agent), rng=rng
        )
        cost = ComputeCost(rrt_iterations=result.iterations)
        if not result.found:
            return False, cost, 0.0
        return True, cost, result.length * ARM_SPEED_SECONDS_PER_UNIT

    def execute(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        # Not the shared dispatcher: the object is looked up before the
        # subgoal name is checked, so a hallucinated ``fetch`` of an
        # imaginary object fails with "no such object ...", and that text
        # is what RoCo's reflection prompt reads.  Dispatching on the name
        # first would change the prompt and with it the golden episodes.
        if subgoal.name == "idle":
            return IDLE
        obj = self.objects.get(subgoal.target)
        if obj is None:
            return ExecutionOutcome.failure(f"no such object {subgoal.target!r}")
        if obj.delivered:
            return ExecutionOutcome.failure("object already delivered")
        arm = self._arms[agent]
        if not arm.reaches(obj.position):
            return ExecutionOutcome.failure("object out of reach")
        if not self.claim(f"object:{obj.name}", agent):
            return ExecutionOutcome.failure("object claimed by teammate")

        if subgoal.name == "transport":
            destination = obj.zone_center
        elif subgoal.name == "stage":
            destination = EXCHANGE_CENTER
        else:
            return ExecutionOutcome.failure(f"unknown subgoal {subgoal.name!r}")
        if not arm.reaches(destination):
            return ExecutionOutcome.failure("destination out of reach")

        ok, compute, motion_seconds = self._motion(agent, obj.position, destination, rng)
        if not ok:
            return ExecutionOutcome(
                success=False,
                primitive_count=1,
                compute=compute,
                actuation_seconds=1.0,
                reason="motion planning failed",
            )
        obj.position = destination
        delivered = subgoal.name == "transport"
        if delivered:
            obj.delivered = True
        return ExecutionOutcome(
            success=True,
            primitive_count=3,
            compute=compute,
            actuation_seconds=motion_seconds + 2 * GRIP_SECONDS,
            progress_delta=(1.0 / max(1, len(self.objects))) if delivered else 0.0,
        )

    def expected_primitives(self, agent: str, subgoal: Subgoal) -> int:
        # Waypoint-level arm control: an LLM issuing primitives must emit
        # every trajectory segment, not just pick/place.
        return 9 if subgoal.name in ("transport", "stage") else 1

    # ------------------------------------------------------------------ #
    # Goals
    # ------------------------------------------------------------------ #

    def goal_progress(self) -> float:
        done = sum(1 for obj in self.objects.values() if obj.delivered)
        return done / max(1, len(self.objects))

    def describe_task(self) -> str:
        return (
            f"Tabletop task: move all {len(self.objects)} objects into their "
            "target zones; out of reach objects must be staged at the "
            "central exchange."
        )
