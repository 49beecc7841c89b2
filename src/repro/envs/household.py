"""Household environment: VirtualHome / C-WAH / BEHAVIOR-1K substitute.

A multi-room house where agents relocate goal objects to target fixtures
("put the apple in the fridge").  Exercises the full modular pipeline:
exploration under partial observability, memory of object locations,
A*-based navigation, optional grasp/RRT manipulation styles, and
multi-agent contention over objects.

Used by: DaDu-E (single agent, grasp execution), OLA (centralized
multi-agent), COHERENT (centralized heterogeneous robots, RRT arms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.beliefs import Beliefs
from repro.core.errors import EnvironmentError_
from repro.core.types import Candidate, Fact, Subgoal, TaskSpec
from repro.envs.base import Environment, ExecutionOutcome
from repro.envs.grid import Cell, RoomGrid, build_row_of_rooms
from repro.planners.costmodel import ComputeCost
from repro.planners.grasp import plan_grasp

#: Seconds of actuation per grid move.
MOVE_SECONDS = 0.45
#: Seconds for a simple (non-grasp) pick or place.
MANIPULATE_SECONDS = 1.6
#: RRT iterations charged per arm manipulation when ``arm_rrt`` is set.
ARM_RRT_ITERATIONS = 260
#: Extra actuation seconds for an RRT-planned arm motion.
ARM_RRT_SECONDS = 2.8

_ROOM_NAMES = ["kitchen", "livingroom", "bedroom", "bathroom", "study"]
_FIXTURES = {
    "kitchen": ["fridge", "counter"],
    "livingroom": ["shelf", "coffee_table"],
    "bedroom": ["bed", "dresser"],
    "bathroom": ["bath_cabinet"],
    "study": ["desk"],
}
_OBJECT_NAMES = [
    "apple",
    "book",
    "mug",
    "remote",
    "pillow",
    "plate",
    "toy_shark",
    "bottle",
    "towel",
    "lamp",
    "folder",
    "banana",
    "vase",
    "charger",
    "notebook",
    "cup",
]

_DIFFICULTY_SETTINGS = {
    "easy": {"rooms": 3, "goals": 3, "distractors": 3},
    "medium": {"rooms": 4, "goals": 7, "distractors": 5},
    "hard": {"rooms": 5, "goals": 11, "distractors": 5},
}


@dataclass
class _HouseObject:
    name: str
    cell: Cell
    room: str
    held_by: str = ""
    placed_at: str = ""  # fixture name once delivered


@dataclass
class _HouseAgent:
    name: str
    cell: Cell
    carrying: str = ""


class HouseholdEnv(Environment):
    """See module docstring."""

    name = "household"

    def __init__(self, task: TaskSpec, rng: np.random.Generator) -> None:
        super().__init__(task, rng)
        settings = _DIFFICULTY_SETTINGS[task.difficulty]
        self.grid: RoomGrid = build_row_of_rooms(_ROOM_NAMES[: settings["rooms"]])
        self.use_grasp: bool = bool(task.params.get("grasp", False))
        self.arm_rrt: bool = bool(task.params.get("arm_rrt", False))

        self.fixtures: dict[str, tuple[str, Cell]] = {}
        for room_name in self.grid.room_names():
            for fixture in _FIXTURES[room_name]:
                self.fixtures[fixture] = (
                    room_name,
                    self.grid.random_cell_in(room_name, rng),
                )

        n_objects = settings["goals"] + settings["distractors"]
        names = list(_OBJECT_NAMES[:n_objects])
        self.objects: dict[str, _HouseObject] = {}
        for obj_name in names:
            room_name = self.grid.room_names()[int(rng.integers(settings["rooms"]))]
            self.objects[obj_name] = _HouseObject(
                name=obj_name,
                cell=self.grid.random_cell_in(room_name, rng),
                room=room_name,
            )

        fixture_names = list(self.fixtures)
        self.goals: dict[str, str] = {}
        goal_objects = list(rng.permutation(names))[: settings["goals"]]
        for obj_name in goal_objects:
            target = fixture_names[int(rng.integers(len(fixture_names)))]
            self.goals[str(obj_name)] = target

        start_room = self.grid.room_names()[0]
        self._agents: dict[str, _HouseAgent] = {
            agent: _HouseAgent(name=agent, cell=self.grid.random_cell_in(start_room, rng))
            for agent in self.agents
        }

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #

    def agent_position(self, agent: str) -> str:
        cell = self._agents[agent].cell
        return self.grid.room_of(cell) or f"cell_{cell[0]}_{cell[1]}"

    def visible_facts(self, agent: str) -> list[Fact]:
        room = self.agent_position(agent)
        step = self.state.step_index
        facts = [Fact(subject=room, relation="visited", value="true", step=step)]
        for obj in self.objects.values():
            if obj.held_by == agent:
                facts.append(
                    Fact(subject=obj.name, relation="held_by", value=agent, step=step)
                )
            elif obj.placed_at:
                if self.fixtures[obj.placed_at][0] == room:
                    facts.append(
                        Fact(
                            subject=obj.name,
                            relation="placed_at",
                            value=obj.placed_at,
                            step=step,
                        )
                    )
            elif not obj.held_by and obj.room == room:
                facts.append(
                    Fact(subject=obj.name, relation="located_in", value=room, step=step)
                )
                # Seeing the object free *retracts* any stale held_by
                # belief (slot-based overwrite) — without this, an object
                # once picked up and put back down would be believed held
                # forever and the task would deadlock.
                facts.append(
                    Fact(subject=obj.name, relation="held_by", value="nobody", step=step)
                )
        return sorted(facts, key=lambda fact: (fact.subject, fact.relation))

    def static_facts(self) -> list[Fact]:
        """Floor-plan knowledge every agent starts with."""
        return [
            Fact(subject=fixture, relation="fixture_in", value=room)
            for fixture, (room, _cell) in sorted(self.fixtures.items())
        ]

    def location_vocabulary(self) -> list[str]:
        return self.grid.room_names()

    # ------------------------------------------------------------------ #
    # Affordances
    # ------------------------------------------------------------------ #

    def candidates(self, agent: str, beliefs: Beliefs) -> tuple[Candidate, ...]:
        me = self._agents[agent]
        option = self.option
        options: list[Candidate] = []

        if me.carrying:
            target_fixture = self.goals.get(me.carrying, "")
            if target_fixture:
                options.append(option("deliver", me.carrying, target_fixture, utility=1.0))
            options.append(option("putdown", me.carrying, utility=0.15))
        else:
            for obj_name, target_fixture in self.goals.items():
                if (
                    self.objects[obj_name].placed_at != target_fixture
                    and beliefs.value(obj_name, "located_in")
                    and beliefs.value(obj_name, "held_by") in (None, "nobody")
                ):
                    options.append(option("fetch", obj_name, utility=0.85))
            # A deliver without holding anything: classic infeasible option.
            first_pending = next(
                (
                    name
                    for name, fixture in self.goals.items()
                    if self.objects[name].placed_at != fixture
                ),
                None,
            )
            if first_pending is not None:
                options.append(
                    option("deliver", first_pending, self.goals[first_pending], feasible=False)
                )

        for room_name in self.grid.room_names():
            visited = beliefs.value(room_name, "visited") == "true"
            options.append(option("explore", room_name, utility=0.12 if visited else 0.4))

        options.append(option("idle", utility=0.02))
        options.extend(self.hallucination_candidates())
        return tuple(options)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def expected_primitives(self, agent: str, subgoal: Subgoal) -> int:
        me = self._agents[agent]
        if subgoal.name == "explore" and subgoal.target in self.grid.room_names():
            target = self.grid.room_named(subgoal.target).center()
            return max(1, abs(me.cell[0] - target[0]) + abs(me.cell[1] - target[1]))
        if subgoal.name == "fetch" and subgoal.target in self.objects:
            obj = self.objects[subgoal.target]
            return 1 + abs(me.cell[0] - obj.cell[0]) + abs(me.cell[1] - obj.cell[1])
        if subgoal.name == "deliver" and subgoal.destination in self.fixtures:
            cell = self.fixtures[subgoal.destination][1]
            return 1 + abs(me.cell[0] - cell[0]) + abs(me.cell[1] - cell[1])
        return 1

    def _navigate(self, me: _HouseAgent, goal_cell: Cell) -> tuple[int, ComputeCost, float]:
        result = self.grid.path(me.cell, goal_cell)
        if not result.found:
            raise EnvironmentError_(
                f"no path from {me.cell} to {goal_cell} in household grid"
            )
        me.cell = goal_cell
        cost = ComputeCost(astar_expansions=result.expansions)
        return result.cost, cost, result.cost * MOVE_SECONDS

    def _manipulation(self, rng: np.random.Generator) -> tuple[bool, ComputeCost, float]:
        """One pick/place, styled per workload (plain, grasp, or RRT arm)."""
        if self.use_grasp:
            grasp = plan_grasp(rng)
            return grasp.success, grasp.cost, grasp.actuation_seconds
        if self.arm_rrt:
            return True, ComputeCost(rrt_iterations=ARM_RRT_ITERATIONS), ARM_RRT_SECONDS
        return True, ComputeCost(), MANIPULATE_SECONDS

    def _do_explore(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        if subgoal.target not in self.grid.room_names():
            return ExecutionOutcome.failure(f"unknown room {subgoal.target!r}")
        me = self._agents[agent]
        moves, compute, actuation = self._navigate(
            me, self.grid.random_cell_in(subgoal.target, rng)
        )
        return ExecutionOutcome(
            success=True,
            primitive_count=max(1, moves),
            compute=compute,
            actuation_seconds=actuation,
        )

    def _do_fetch(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        obj = self.objects.get(subgoal.target)
        if obj is None:
            return ExecutionOutcome.failure(f"no such object {subgoal.target!r}")
        me = self._agents[agent]
        if me.carrying:
            return ExecutionOutcome.failure("hands full")
        if obj.held_by or obj.placed_at:
            return ExecutionOutcome.failure("object unavailable")
        if not self.claim(f"object:{obj.name}", agent):
            return ExecutionOutcome.failure("object claimed by teammate")
        moves, compute, actuation = self._navigate(me, obj.cell)
        picked, pick_cost, pick_time = self._manipulation(rng)
        compute = compute + pick_cost
        actuation += pick_time
        if not picked:
            return ExecutionOutcome(
                success=False,
                primitive_count=moves + 1,
                compute=compute,
                actuation_seconds=actuation,
                reason="grasp failed",
            )
        obj.held_by = agent
        me.carrying = obj.name
        return ExecutionOutcome(
            success=True,
            primitive_count=moves + 1,
            compute=compute,
            actuation_seconds=actuation,
        )

    def _do_deliver(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        me = self._agents[agent]
        if me.carrying != subgoal.target:
            return ExecutionOutcome.failure("not holding target object")
        if subgoal.destination not in self.fixtures:
            return ExecutionOutcome.failure(f"unknown fixture {subgoal.destination!r}")
        room, cell = self.fixtures[subgoal.destination]
        moves, compute, actuation = self._navigate(me, cell)
        placed, place_cost, place_time = self._manipulation(rng)
        compute = compute + place_cost
        actuation += place_time
        if not placed:
            return ExecutionOutcome(
                success=False,
                primitive_count=moves + 1,
                compute=compute,
                actuation_seconds=actuation,
                reason="place failed",
            )
        obj = self.objects[subgoal.target]
        obj.held_by = ""
        obj.room = room
        obj.cell = cell
        obj.placed_at = subgoal.destination
        me.carrying = ""
        delta = 1.0 / max(1, len(self.goals))
        progress = delta if self.goals.get(subgoal.target) == subgoal.destination else 0.0
        return ExecutionOutcome(
            success=True,
            primitive_count=moves + 1,
            compute=compute,
            actuation_seconds=actuation,
            progress_delta=progress,
        )

    def _do_putdown(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        me = self._agents[agent]
        if not me.carrying:
            return ExecutionOutcome.failure("not holding anything")
        obj = self.objects[me.carrying]
        obj.held_by = ""
        obj.cell = me.cell
        obj.room = self.grid.room_of(me.cell) or obj.room
        me.carrying = ""
        return ExecutionOutcome(
            success=True,
            primitive_count=1,
            compute=ComputeCost(),
            actuation_seconds=MANIPULATE_SECONDS,
        )

    # ------------------------------------------------------------------ #
    # Goals
    # ------------------------------------------------------------------ #

    def goal_progress(self) -> float:
        done = sum(
            1
            for obj_name, fixture in self.goals.items()
            if self.objects[obj_name].placed_at == fixture
        )
        return done / max(1, len(self.goals))

    def describe_task(self) -> str:
        clauses = [
            f"put the {obj_name} at the {fixture}"
            for obj_name, fixture in sorted(self.goals.items())
        ]
        return "Household task: " + "; ".join(clauses) + "."
