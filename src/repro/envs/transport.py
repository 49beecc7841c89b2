"""Transport environment: TDW-MAT (ThreeDWorld Multi-Agent Transport) substitute.

Agents cooperatively carry scattered target objects to a goal zone.  Each
agent can hold two objects at once (TDW-MAT's hands), so efficient play
batches pickups before returning — a plan-quality signal the simulated
LLM's faults degrade.  Contention (two agents heading for the same object)
and exploration under partial observability drive the cooperation effects
the paper measures on CoELA.
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


MOVE_SECONDS = 0.4
PICK_SECONDS = 1.2
DROP_SECONDS = 0.9
CARRY_CAPACITY = 2
#: Robots that fit in one room per step before congestion blocks entry.
ROOM_CAPACITY = 3

_ROOM_NAMES = ["goal_zone", "hall", "office", "lounge", "storage", "workshop"]
_OBJECT_PREFIX = ["box", "bag", "crate", "parcel", "case"]

_DIFFICULTY_SETTINGS = {
    "easy": {"rooms": 4, "targets": 6},
    "medium": {"rooms": 5, "targets": 12},
    "hard": {"rooms": 6, "targets": 16},
}


@dataclass
class _TransportObject:
    name: str
    cell: Cell
    room: str
    held_by: str = ""
    delivered: bool = False


@dataclass
class _TransportAgent:
    name: str
    cell: Cell
    carrying: list[str]


class TransportEnv(Environment):
    """See module docstring."""

    name = "transport"

    def __init__(self, task: TaskSpec, rng: np.random.Generator) -> None:
        super().__init__(task, rng)
        settings = _DIFFICULTY_SETTINGS[task.difficulty]
        self.grid: RoomGrid = build_row_of_rooms(_ROOM_NAMES[: settings["rooms"]])
        spawn_rooms = self.grid.room_names()[1:]  # not in the goal zone

        # Larger crews haul proportionally more cargo (the multi-agent
        # transport benchmarks scale the task with the team).
        n_targets = settings["targets"] + 2 * max(0, task.n_agents - 2)
        self.objects: dict[str, _TransportObject] = {}
        for index in range(n_targets):
            name = f"{_OBJECT_PREFIX[index % len(_OBJECT_PREFIX)]}_{index}"
            room = spawn_rooms[int(rng.integers(len(spawn_rooms)))]
            self.objects[name] = _TransportObject(
                name=name, cell=self.grid.random_cell_in(room, rng), room=room
            )

        self._agents: dict[str, _TransportAgent] = {
            agent: _TransportAgent(
                name=agent,
                cell=self.grid.random_cell_in("goal_zone", rng),
                carrying=[],
            )
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
            elif obj.delivered:
                if room == "goal_zone":
                    facts.append(
                        Fact(subject=obj.name, relation="delivered", value="true", step=step)
                    )
            elif not obj.held_by and obj.room == room:
                facts.append(
                    Fact(subject=obj.name, relation="located_in", value=room, step=step)
                )
                # Retract any stale held_by belief (see household.py).
                facts.append(
                    Fact(subject=obj.name, relation="held_by", value="nobody", step=step)
                )
        return sorted(facts, key=lambda fact: (fact.subject, fact.relation))

    def static_facts(self) -> list[Fact]:
        return [Fact(subject="goal_zone", relation="is", value="the drop off area")]

    def location_vocabulary(self) -> list[str]:
        return self.grid.room_names()

    # ------------------------------------------------------------------ #
    # Affordances
    # ------------------------------------------------------------------ #

    def candidates(self, agent: str, beliefs: Beliefs) -> tuple[Candidate, ...]:
        me = self._agents[agent]
        n_carrying = len(me.carrying)
        option = self.option
        options: list[Candidate] = []

        if me.carrying:
            # Returning pays off more the fuller the hands are.
            options.append(option("deposit", utility=0.7 + 0.3 * (n_carrying / CARRY_CAPACITY)))
        if n_carrying < CARRY_CAPACITY:
            for obj in self.objects.values():
                if not obj.delivered and not obj.held_by and beliefs.value(obj.name, "located_in"):
                    options.append(option("pickup", obj.name, utility=0.85))
        else:
            first_pending = next(
                (
                    obj.name
                    for obj in self.objects.values()
                    if not obj.delivered and not obj.held_by
                ),
                None,
            )
            if first_pending is not None:
                options.append(option("pickup", first_pending, feasible=False))

        for room_name in self.grid.room_names()[1:]:
            visited = beliefs.value(room_name, "visited") == "true"
            options.append(option("explore", room_name, utility=0.12 if visited else 0.42))

        options.append(option("idle", utility=0.02))
        options.extend(self.hallucination_candidates())
        return tuple(options)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def expected_primitives(self, agent: str, subgoal: Subgoal) -> int:
        me = self._agents[agent]
        if subgoal.name == "pickup" and subgoal.target in self.objects:
            obj = self.objects[subgoal.target]
            return 1 + abs(me.cell[0] - obj.cell[0]) + abs(me.cell[1] - obj.cell[1])
        if subgoal.name == "deposit":
            target = self.grid.room_named("goal_zone").center()
            return 1 + abs(me.cell[0] - target[0]) + abs(me.cell[1] - target[1])
        if subgoal.name == "explore" and subgoal.target in self.grid.room_names():
            target = self.grid.room_named(subgoal.target).center()
            return max(1, abs(me.cell[0] - target[0]) + abs(me.cell[1] - target[1]))
        return 1

    def _navigate(
        self, me: _TransportAgent, goal_cell: Cell
    ) -> tuple[int, ComputeCost, float]:
        result = self.grid.path(me.cell, goal_cell)
        if not result.found:
            raise EnvironmentError_(f"no path {me.cell} -> {goal_cell}")
        me.cell = goal_cell
        return (
            result.cost,
            ComputeCost(astar_expansions=result.expansions),
            result.cost * MOVE_SECONDS,
        )

    def _do_explore(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        if subgoal.target not in self.grid.room_names():
            return ExecutionOutcome.failure(f"unknown room {subgoal.target!r}")
        if not self.claim_slot(f"room:{subgoal.target}", agent, ROOM_CAPACITY):
            return ExecutionOutcome.failure(
                "room congested", actuation_seconds=1.0
            )
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

    def _do_pickup(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        obj = self.objects.get(subgoal.target)
        if obj is None:
            return ExecutionOutcome.failure(f"no such object {subgoal.target!r}")
        me = self._agents[agent]
        if len(me.carrying) >= CARRY_CAPACITY:
            return ExecutionOutcome.failure("hands full")
        if obj.delivered or obj.held_by:
            return ExecutionOutcome.failure("object unavailable")
        if not self.claim_slot(f"room:{obj.room}", agent, ROOM_CAPACITY):
            return ExecutionOutcome.failure(
                "room congested", actuation_seconds=1.0
            )
        if not self.claim(f"object:{obj.name}", agent):
            return ExecutionOutcome.failure("object claimed by teammate")
        moves, compute, actuation = self._navigate(me, obj.cell)
        obj.held_by = agent
        me.carrying.append(obj.name)
        return ExecutionOutcome(
            success=True,
            primitive_count=moves + 1,
            compute=compute,
            actuation_seconds=actuation + PICK_SECONDS,
        )

    def _do_deposit(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        me = self._agents[agent]
        if not me.carrying:
            return ExecutionOutcome.failure("not carrying anything")
        moves, compute, actuation = self._navigate(
            me, self.grid.random_cell_in("goal_zone", rng)
        )
        delivered = 0
        for obj_name in list(me.carrying):
            obj = self.objects[obj_name]
            obj.held_by = ""
            obj.delivered = True
            obj.room = "goal_zone"
            obj.cell = me.cell
            delivered += 1
        me.carrying.clear()
        return ExecutionOutcome(
            success=True,
            primitive_count=moves + delivered,
            compute=compute,
            actuation_seconds=actuation + delivered * DROP_SECONDS,
            progress_delta=delivered / max(1, len(self.objects)),
        )

    # ------------------------------------------------------------------ #
    # Goals
    # ------------------------------------------------------------------ #

    def goal_progress(self) -> float:
        delivered = sum(1 for obj in self.objects.values() if obj.delivered)
        return delivered / max(1, len(self.objects))

    def describe_task(self) -> str:
        return (
            f"Transport task: carry all {len(self.objects)} target objects "
            "to the goal zone. Each agent can hold two objects."
        )
