"""Mineworld environment: Minecraft / MineRL substitute.

An open-world crafting game with the classic tool-progression dependency
DAG (logs → planks → wooden pickaxe → cobblestone → stone pickaxe → iron →
diamond pickaxe).  Resource deposits live in areas that must be explored
first, mining requires the right tool tier, and crafting happens at the
base camp — so the workload exercises exactly what JARVIS-1/MP5/DEPS
stress: long-horizon dependency reasoning, exploration memory, and typed
failure modes (mining without the tool, crafting without ingredients,
pursuing side-branches of the tech tree).

Difficulty sets the goal item: ``easy`` → stone_pickaxe, ``medium`` →
iron_pickaxe, ``hard`` → diamond_pickaxe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.beliefs import Beliefs
from repro.core.types import Candidate, Fact, Subgoal, TaskSpec
from repro.envs.base import Environment, ExecutionOutcome
from repro.planners.costmodel import ComputeCost

TRAVEL_SECONDS_PER_AREA = 2.2
GATHER_SECONDS = 3.0
CRAFT_SECONDS = 1.2
#: Chance that one roaming step locates an unremembered deposit.
SEARCH_FIND_PROBABILITY = 0.55

AREAS = ("base", "forest", "quarry", "cave", "deep_cave")

#: Which area hosts each gatherable resource.
RESOURCE_AREAS = {
    "log": "forest",
    "cobblestone": "quarry",
    "iron_ore": "cave",
    "diamond": "deep_cave",
}

#: Tool required to gather each resource ("" = bare hands).
GATHER_TOOL = {
    "log": "",
    "cobblestone": "wooden_pickaxe",
    "iron_ore": "stone_pickaxe",
    "diamond": "iron_pickaxe",
}

#: Units produced per successful gather.
GATHER_YIELD = {"log": 2, "cobblestone": 2, "iron_ore": 1, "diamond": 1}

#: Crafting recipes: item -> ingredient counts.  Crafting happens at base.
RECIPES: dict[str, dict[str, int]] = {
    "planks": {"log": 1},
    "stick": {"planks": 1},
    "crafting_table": {"planks": 2},
    "wooden_pickaxe": {"stick": 2, "planks": 2, "crafting_table": 0},
    "furnace": {"cobblestone": 4, "crafting_table": 0},
    "stone_pickaxe": {"stick": 2, "cobblestone": 2, "crafting_table": 0},
    "iron_ingot": {"iron_ore": 1, "log": 1, "furnace": 0},
    "iron_pickaxe": {"stick": 2, "iron_ingot": 2, "crafting_table": 0},
    "diamond_pickaxe": {"stick": 2, "diamond": 2, "crafting_table": 0},
}

#: Items that are stations: required present (count 0 entries) not consumed.
STATIONS = frozenset({"crafting_table", "furnace"})

GOALS_BY_DIFFICULTY = {
    "easy": "stone_pickaxe",
    "medium": "iron_pickaxe",
    "hard": "diamond_pickaxe",
}

#: Belief slots the candidate menu reads.
_DEPOSIT_KEYS = tuple(
    (f"{resource}_deposit", "located_in") for resource in RESOURCE_AREAS
)
_AREA_VISITED_KEYS = tuple((area, "visited") for area in AREAS[1:])
#: Craft options are listed in recipe-name order.
_CRAFT_MENU = tuple(sorted(RECIPES))
#: What crafting each item needs on hand: a station (count 0 in its
#: recipe) must be present but is not consumed.
_ON_HAND = {
    item: tuple((ingredient, count or 1) for ingredient, count in recipe.items())
    for item, recipe in RECIPES.items()
}


def requirement_closure(goal: str) -> set[str]:
    """All craftable items transitively needed to build ``goal``.

    Follows both recipe ingredients and *tool* dependencies: mining
    cobblestone needs a wooden pickaxe even though no recipe lists one,
    so the closure of ``stone_pickaxe`` includes ``wooden_pickaxe``.
    """
    needed: set[str] = set()
    frontier = [goal]
    while frontier:
        item = frontier.pop()
        if item in RECIPES:
            if item in needed:
                continue
            needed.add(item)
            frontier.extend(RECIPES[item])
        else:
            tool = GATHER_TOOL.get(item, "")
            if tool and tool not in needed:
                frontier.append(tool)
    return needed


class DemandStep(NamedTuple):
    """One node of a goal's demand plan (see :func:`demand_plan`).

    The node's demand is ``base`` (1 for the goal itself, else 0) plus,
    for each ``(consumer, units)`` whose deficit is positive, ``units``
    times that deficit, or 1 for a ``units == 0`` station use.
    ``station`` caps the demand at one; ``gates`` lists the resources the
    node unlocks as a tool, and a tool the player lacks is demanded while
    any of them is short.  The deficit is the demand minus the count held,
    floored at zero.
    """

    name: str
    base: int
    consumers: tuple[tuple[str, int], ...]
    station: bool
    gates: tuple[str, ...]


def demand_plan(goal: str) -> tuple[DemandStep, ...]:
    """Fixed evaluation order of ``goal``'s item and resource deficits.

    Demand flows down the tech tree along two kinds of edge: a recipe
    edge from an item to each needed item that consumes it, and a tool
    edge from a tool to the consumers of the resource it gates.  Every
    edge points up the tree, so for every goal the graph is a DAG, and in
    this topological order each node comes after everything it reads:

    - a needed item after its needed consumers;
    - a resource after its needed consumers;
    - a tool after the resources it gates.

    Raises :class:`ValueError` if the tables ever close a cycle.
    """
    needed = sorted(requirement_closure(goal))
    steps = [
        DemandStep(
            name=name,
            base=1 if name == goal else 0,
            consumers=tuple(
                (consumer, RECIPES[consumer][name])
                for consumer in needed
                if name in RECIPES[consumer]
            ),
            station=name in STATIONS,
            gates=tuple(resource for resource, tool in GATHER_TOOL.items() if tool == name),
        )
        for name in needed
    ]
    steps.extend(
        DemandStep(
            name=resource,
            base=0,
            consumers=tuple(
                (consumer, RECIPES[consumer][resource])
                for consumer in needed
                if RECIPES[consumer].get(resource, 0) > 0
            ),
            station=False,
            gates=(),
        )
        for resource in RESOURCE_AREAS
    )
    # Kahn's algorithm: place every step whose inputs are all placed.
    pending = {
        step.name: (step, {consumer for consumer, _ in step.consumers} | set(step.gates))
        for step in steps
    }
    order: list[DemandStep] = []
    while pending:
        ready = [step for step, inputs in pending.values() if inputs.isdisjoint(pending)]
        if not ready:
            raise ValueError(f"demand graph of {goal!r} has a cycle among {sorted(pending)}")
        for step in ready:
            order.append(step)
            del pending[step.name]
    return tuple(order)


@dataclass
class _Player:
    name: str
    area: str = "base"
    inventory: dict[str, int] = field(default_factory=dict)

    def count(self, item: str) -> int:
        return self.inventory.get(item, 0)

    def add(self, item: str, amount: int) -> None:
        self.inventory[item] = self.count(item) + amount

    def remove(self, item: str, amount: int) -> None:
        remaining = self.count(item) - amount
        if remaining < 0:
            raise ValueError(f"cannot remove {amount} {item}, have {self.count(item)}")
        if remaining == 0:
            self.inventory.pop(item, None)
        else:
            self.inventory[item] = remaining


class MineWorldEnv(Environment):
    """See module docstring."""

    name = "mineworld"

    def __init__(self, task: TaskSpec, rng: np.random.Generator) -> None:
        super().__init__(task, rng)
        self.goal_item: str = str(
            task.params.get("goal_item", GOALS_BY_DIFFICULTY[task.difficulty])
        )
        if self.goal_item not in RECIPES:
            raise ValueError(f"goal item {self.goal_item!r} is not craftable")
        self.needed_items = requirement_closure(self.goal_item)
        self._demand_plan = demand_plan(self.goal_item)
        # Deposit areas are shuffled per episode so exploration is real:
        # the agent knows area names but not which resources they host.
        areas = list(AREAS[1:])
        rng.shuffle(areas)
        self.deposit_area: dict[str, str] = {
            resource: areas[index % len(areas)]
            for index, resource in enumerate(RESOURCE_AREAS)
        }
        self._players: dict[str, _Player] = {
            agent: _Player(name=agent) for agent in self.agents
        }
        self._area_index = {area: index for index, area in enumerate(AREAS)}

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #

    def agent_position(self, agent: str) -> str:
        return self._players[agent].area

    def visible_facts(self, agent: str) -> list[Fact]:
        player = self._players[agent]
        step = self.state.step_index
        facts = [Fact(subject=player.area, relation="visited", value="true", step=step)]
        for resource, area in self.deposit_area.items():
            if area == player.area:
                facts.append(
                    Fact(
                        subject=f"{resource}_deposit",
                        relation="located_in",
                        value=area,
                        step=step,
                    )
                )
        for item, count in sorted(player.inventory.items()):
            facts.append(
                Fact(subject=item, relation="inventory_count", value=str(count), step=step)
            )
        return facts

    def static_facts(self) -> list[Fact]:
        facts = []
        for item, recipe in sorted(RECIPES.items()):
            ingredients = " and ".join(
                f"{count} {name}" if count else f"a {name}"
                for name, count in sorted(recipe.items())
            )
            facts.append(Fact(subject=item, relation="crafted_from", value=ingredients))
        return facts

    def location_vocabulary(self) -> list[str]:
        return list(AREAS)

    # ------------------------------------------------------------------ #
    # Affordances
    # ------------------------------------------------------------------ #

    def _craftable(self, player: _Player, item: str) -> bool:
        """Ingredients available?  (Execution travels to base by itself.)"""
        have = player.inventory.get
        for ingredient, count in _ON_HAND[item]:
            if have(ingredient, 0) < count:
                return False
        return True

    def candidates(self, agent: str, beliefs: Beliefs) -> tuple[Candidate, ...]:
        player = self._players[agent]
        option = self.option
        options = self._economy_options(player, beliefs.values_at(_DEPOSIT_KEYS))
        visited = beliefs.values_at(_AREA_VISITED_KEYS)
        for area, value in zip(AREAS[1:], visited):
            options.append(option("explore", area, utility=0.1 if value == "true" else 0.45))
        if player.area != "base":
            options.append(option("explore", "base", utility=0.3))
        options.append(option("idle", utility=0.02))
        options.extend(self.hallucination_candidates())
        return tuple(options)

    def deficits(self, inventory: dict[str, int]) -> dict[str, int]:
        """Item and resource deficits toward the goal, for ``inventory``.

        One pass over the goal's :func:`demand_plan` in integer
        arithmetic: every node's consumers and gated resources are
        evaluated before it.  Items outside the requirement closure are
        absent (no deficit).
        """
        deficit: dict[str, int] = {}
        for name, base, consumers, station, gates in self._demand_plan:
            demanded = base
            for consumer, units in consumers:
                short = deficit[consumer]
                if short > 0:
                    demanded += units * short if units else 1
            if station and demanded > 1:
                demanded = 1
            have = inventory.get(name, 0)
            if gates and not demanded and not have:
                # A missing tool is demanded while a resource it gates is short.
                for resource in gates:
                    if deficit[resource] > 0:
                        demanded = 1
                        break
            deficit[name] = demanded - have if demanded > have else 0
        return deficit

    def _economy_options(
        self, player: _Player, deposits: tuple[str | None, ...]
    ) -> list[Candidate]:
        deficit = self.deficits(player.inventory)
        option = self.option
        options: list[Candidate] = []

        for item in _CRAFT_MENU:
            craftable = self._craftable(player, item)
            needed = deficit.get(item, 0) > 0
            if craftable and needed:
                utility = 1.0 if item == self.goal_item else 0.9
                options.append(option("craft", item, utility=utility))
            elif craftable:
                # Side-branch bait: feasible but useless.
                options.append(option("craft", item, utility=0.15))
            elif needed:
                options.append(option("craft", item, feasible=False))

        for resource, known_area in zip(RESOURCE_AREAS, deposits):
            short = deficit[resource] > 0
            tool = GATHER_TOOL[resource]
            has_tool = not tool or player.count(tool) >= 1
            if known_area is None:
                # Deposit location unknown: a search-gather is still
                # possible (roam until the deposit is found, then mine),
                # at a lower utility than a remembered location.  This is
                # how memory-less systems (MP5, DEPS) make progress, and
                # why memory saves steps rather than being a hard gate.
                if short and has_tool:
                    options.append(option("gather", resource, "search", utility=0.6))
                continue
            if short and has_tool:
                options.append(option("gather", resource, utility=0.8))
            elif short:
                # Lacking the tool tier.
                options.append(option("gather", resource, feasible=False))
            elif has_tool:
                # Over-gathering bait: feasible but pointless.
                options.append(option("gather", resource, utility=0.1))
        return options

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def expected_primitives(self, agent: str, subgoal: Subgoal) -> int:
        if subgoal.name == "gather":
            return 6
        if subgoal.name == "craft":
            return 3
        if subgoal.name == "explore":
            return 4
        return 1

    def _travel(self, player: _Player, area: str) -> tuple[int, float]:
        distance = abs(self._area_index[player.area] - self._area_index[area])
        player.area = area
        return distance, distance * TRAVEL_SECONDS_PER_AREA

    def _do_explore(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        if subgoal.target not in self._area_index:
            return ExecutionOutcome.failure(f"unknown area {subgoal.target!r}")
        player = self._players[agent]
        moves, travel_time = self._travel(player, subgoal.target)
        return ExecutionOutcome(
            success=True,
            primitive_count=max(1, moves * 2),
            compute=ComputeCost(actionlist_actions=max(1, moves)),
            actuation_seconds=travel_time + 1.0,
        )

    def _do_gather(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        resource = subgoal.target
        if resource not in RESOURCE_AREAS:
            return ExecutionOutcome.failure(f"unknown resource {resource!r}")
        player = self._players[agent]
        area = self.deposit_area[resource]
        if subgoal.destination == "search":
            # Roaming for an unremembered deposit: wander extra areas and
            # only find it with some probability this step.  Memory turns
            # this gamble into a direct trip — the step-count value the
            # paper measures in Fig. 3/Fig. 5.
            search_areas = max(1, len(AREAS) // 2)
            if rng.random() > SEARCH_FIND_PROBABILITY:
                wrong_areas = [a for a in AREAS[1:] if a != area]
                player.area = wrong_areas[int(rng.integers(len(wrong_areas)))]
                return ExecutionOutcome(
                    success=False,
                    primitive_count=search_areas + 1,
                    compute=ComputeCost(actionlist_actions=search_areas + 1),
                    actuation_seconds=(search_areas + 1) * TRAVEL_SECONDS_PER_AREA,
                    reason="deposit not found while searching",
                )
            moves, travel_time = self._travel(player, area)
            moves += search_areas
            travel_time += search_areas * TRAVEL_SECONDS_PER_AREA
        else:
            moves, travel_time = self._travel(player, area)
        tool = GATHER_TOOL[resource]
        if tool and player.count(tool) < 1:
            return ExecutionOutcome(
                success=False,
                primitive_count=moves + 1,
                compute=ComputeCost(actionlist_actions=moves + 1),
                actuation_seconds=travel_time + 1.0,
                reason=f"requires {tool}",
            )
        player.add(resource, GATHER_YIELD[resource])
        return ExecutionOutcome(
            success=True,
            primitive_count=moves + 4,
            compute=ComputeCost(actionlist_actions=moves + 4),
            actuation_seconds=travel_time + GATHER_SECONDS,
            progress_delta=0.0,
        )

    def _do_craft(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        item = subgoal.target
        player = self._players[agent]
        if item not in RECIPES:
            return ExecutionOutcome.failure(f"unknown recipe {item!r}")
        moves, travel_time = self._travel(player, "base")
        if not self._craftable(player, item):
            return ExecutionOutcome(
                success=False,
                primitive_count=moves + 1,
                compute=ComputeCost(actionlist_actions=moves + 1),
                actuation_seconds=travel_time + CRAFT_SECONDS,
                reason="missing ingredients",
            )
        for ingredient, count in RECIPES[item].items():
            if count > 0:
                player.remove(ingredient, count)
        player.add(item, 1)
        progress = 1.0 if item == self.goal_item else 0.0
        return ExecutionOutcome(
            success=True,
            primitive_count=moves + 3,
            compute=ComputeCost(actionlist_actions=moves + 3),
            actuation_seconds=travel_time + CRAFT_SECONDS,
            progress_delta=progress,
        )

    # ------------------------------------------------------------------ #
    # Goals
    # ------------------------------------------------------------------ #

    def goal_progress(self) -> float:
        # Progress = fraction of the requirement closure already satisfied,
        # which gives the planner's utility oracle a smooth signal.
        total = len(self.needed_items)
        if total == 0:
            return 1.0
        have = sum(
            1
            for item in self.needed_items
            if any(self._players[a].count(item) >= 1 for a in self.agents)
        )
        goal_done = any(
            self._players[agent].count(self.goal_item) >= 1 for agent in self.agents
        )
        return 1.0 if goal_done else min(0.99, have / total)

    def describe_task(self) -> str:
        return (
            f"Open world crafting task: obtain a {self.goal_item}. Resources "
            "must be gathered with the right tool tier and crafted at base."
        )
