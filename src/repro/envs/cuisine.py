"""Cuisine environment: CuisineWorld / TDW-Cook substitute.

An order-driven cooking game: dishes are requested over time, each dish is
a recipe of ingredients that must be fetched from the pantry, optionally
cooked at the stove, assembled, and served at the window.  The kitchen is
divided into zones with zone-local observability, so remembering which
ingredients are already prepped is what the memory module buys (Fig. 5's
MindAgent sweep), and simultaneous station grabs by multiple agents create
the coordination pressure behind the scalability analysis (Fig. 7).

Used by: MindAgent (centralized), COMBO (decentralized).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.beliefs import Beliefs
from repro.core.types import Candidate, Fact, Subgoal, TaskSpec
from repro.envs.base import Environment, ExecutionOutcome
from repro.planners.costmodel import ComputeCost


#: Kitchen zones on a line; travel time scales with zone distance.
ZONES = ("pantry", "stove", "assembly", "window")
ZONE_INDEX = {zone: index for index, zone in enumerate(ZONES)}
TRAVEL_SECONDS_PER_ZONE = 1.1
OPERATE_SECONDS = 1.8
#: Cooks that fit at the pantry / serving window per step.
ZONE_CAPACITY = 2
#: Default steps an order waits before customers give up.  0 disables
#: expiry; MindAgent's CuisineWorld enables it via task params (TDW-Cook,
#: COMBO's benchmark, has no order timeout).
DEFAULT_ORDER_DEADLINE_STEPS = 0

#: Recipes: ingredient -> needs cooking.
RECIPES: dict[str, dict[str, bool]] = {
    "salad": {"lettuce": False, "tomato": False},
    "sandwich": {"bread": False, "cheese": False, "ham": False},
    "soup": {"onion": True, "tomato": True},
    "pasta": {"noodles": True, "sauce": False},
    "burger": {"bun": False, "patty": True, "lettuce": False},
    "stew": {"potato": True, "carrot": True, "onion": True},
    "pizza": {"dough": True, "cheese": False, "sauce": False},
}

_DIFFICULTY_SETTINGS = {
    "easy": {"orders": 3, "dishes": ["salad", "sandwich"], "arrival_gap": 0},
    "medium": {"orders": 5, "dishes": ["salad", "soup", "pasta", "burger"], "arrival_gap": 3},
    "hard": {"orders": 7, "dishes": ["burger", "stew", "pizza", "pasta"], "arrival_gap": 2},
}

#: Ingredient stages, in order.
STAGE_NEEDED = "needed"
STAGE_FETCHED = "fetched"
STAGE_COOKED = "cooked"


@dataclass
class _Ingredient:
    name: str
    needs_cook: bool
    #: ``order_i:name``: the target of its subgoals and subject of its facts.
    item_id: str
    fetch_option: Candidate
    cook_option: Candidate
    stage: str = STAGE_NEEDED

    @property
    def ready(self) -> bool:
        return self.stage == STAGE_COOKED or (
            not self.needs_cook and self.stage == STAGE_FETCHED
        )

    @property
    def zone(self) -> str:
        """Zone where the item currently sits (and is visible)."""
        if self.stage == STAGE_NEEDED:
            return "pantry"
        if self.stage == STAGE_FETCHED and self.needs_cook:
            return "stove"
        return "assembly"


@dataclass
class _Order:
    name: str
    dish: str
    arrival_step: int
    ingredients: dict[str, _Ingredient]
    serve_option: Candidate
    assemble_option: Candidate
    #: The infeasible ``serve`` offered while ingredients are believed missing.
    unready_option: Candidate
    assembled: bool = False
    served: bool = False
    expired: bool = False
    deadline_steps: int = DEFAULT_ORDER_DEADLINE_STEPS

    @property
    def deadline(self) -> int:
        """Step after which the order expires (no expiry when <= 0)."""
        if self.deadline_steps <= 0:
            return 1 << 30
        return self.arrival_step + self.deadline_steps


@dataclass
class _Cook:
    name: str
    zone: str = "assembly"


class CuisineEnv(Environment):
    """See module docstring."""

    name = "cuisine"

    def __init__(self, task: TaskSpec, rng: np.random.Generator) -> None:
        super().__init__(task, rng)
        settings = _DIFFICULTY_SETTINGS[task.difficulty]
        # CuisineWorld scales demand with the brigade: each cook beyond
        # the base pair brings one extra order.  Without this, large
        # teams trivially over-provision the kitchen and the scalability
        # pressure the paper measures (Fig. 7) never materializes.
        n_orders = settings["orders"] + max(0, task.n_agents - 2)
        deadline_steps = int(task.params.get("deadline_steps", DEFAULT_ORDER_DEADLINE_STEPS))
        option = self.option
        self.orders: list[_Order] = []
        for index in range(n_orders):
            dish = settings["dishes"][int(rng.integers(len(settings["dishes"])))]
            name = f"order_{index}"
            ingredients = {}
            for ingredient, needs_cook in RECIPES[dish].items():
                item = f"{name}:{ingredient}"
                ingredients[ingredient] = _Ingredient(
                    name=ingredient,
                    needs_cook=needs_cook,
                    item_id=item,
                    fetch_option=option("fetch", item, utility=0.8),
                    cook_option=option("cook", item, utility=0.9),
                )
            self.orders.append(
                _Order(
                    name=name,
                    dish=dish,
                    arrival_step=index * settings["arrival_gap"],
                    ingredients=ingredients,
                    serve_option=option("serve", name, utility=1.0),
                    assemble_option=option("assemble", name, utility=0.95),
                    unready_option=option("serve", name, feasible=False),
                    deadline_steps=deadline_steps,
                )
            )
        #: Every menu's tail, after the order options.
        self._fixed_options: tuple[Candidate, ...] = (
            option("inspect", "stove", utility=0.25),
            option("inspect", "assembly", utility=0.25),
            option("idle", utility=0.02),
            *self.hallucination_candidates(),
        )
        self._cooks: dict[str, _Cook] = {agent: _Cook(name=agent) for agent in self.agents}
        # Memos of what the world state determines; _world_changed drops
        # both.  Every cook in a zone is handed the same view tuple.
        self._active: tuple[_Order, ...] | None = None
        self._views: dict[str, tuple[Fact, ...]] = {}

    def _world_changed(self) -> None:
        """Drop the memoized order board and zone views.

        Called after every write that a view or the board reads: the
        step (and with it arrivals and expiries), an ingredient's stage,
        an order's ``assembled`` or ``served``.
        """
        self._active = None
        self._views.clear()

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #

    def tick(self) -> None:
        super().tick()
        # Customers walk away: unserved orders expire at their deadline,
        # permanently capping achievable progress — the throughput
        # pressure that makes over-staffed, badly-coordinated kitchens
        # fail at scale (Fig. 7a).
        for order in self.orders:
            if not order.served and self.state.step_index > order.deadline:
                order.expired = True
        self._world_changed()

    def _active_orders(self) -> tuple[_Order, ...]:
        active = self._active
        if active is None:
            step = self.state.step_index
            active = self._active = tuple(
                order
                for order in self.orders
                if order.arrival_step <= step and not order.served and not order.expired
            )
        return active

    def agent_position(self, agent: str) -> str:
        return self._cooks[agent].zone

    def visible_facts(self, agent: str) -> tuple[Fact, ...]:
        """The view of the cook's zone: built on the first read after a
        world change, then the same tuple for every cook there."""
        zone = self._cooks[agent].zone
        view = self._views.get(zone)
        if view is None:
            view = self._views[zone] = self._zone_view(zone)
        return view

    def _zone_view(self, zone: str) -> tuple[Fact, ...]:
        step = self.state.step_index
        facts = [Fact(subject=zone, relation="visited", value="true", step=step)]
        for order in self._active_orders():
            # The order board is global.
            facts.append(
                Fact(subject=order.name, relation="requests", value=order.dish, step=step)
            )
            if order.assembled:
                facts.append(
                    Fact(subject=order.name, relation="status", value="assembled", step=step)
                )
            for ingredient in order.ingredients.values():
                if ingredient.zone == zone and ingredient.stage != STAGE_NEEDED:
                    facts.append(
                        Fact(
                            subject=ingredient.item_id,
                            relation="stage",
                            value=ingredient.stage,
                            step=step,
                        )
                    )
        return tuple(sorted(facts, key=lambda fact: (fact.subject, fact.relation)))

    def static_facts(self) -> list[Fact]:
        facts = []
        for dish, recipe in sorted(RECIPES.items()):
            ingredients = " and ".join(sorted(recipe))
            facts.append(Fact(subject=dish, relation="is_made_of", value=ingredients))
        return facts

    def location_vocabulary(self) -> list[str]:
        return list(ZONES)

    # ------------------------------------------------------------------ #
    # Affordances
    # ------------------------------------------------------------------ #

    def candidates(self, agent: str, beliefs: Beliefs) -> tuple[Candidate, ...]:
        believed = beliefs.value
        options: list[Candidate] = []
        append = options.append
        for order in self._active_orders():
            if order.assembled:
                append(order.serve_option)
                continue
            all_ready_by_belief = True
            for ingredient in order.ingredients.values():
                believed_stage = believed(ingredient.item_id, "stage") or STAGE_NEEDED
                if believed_stage == STAGE_NEEDED:
                    all_ready_by_belief = False
                    append(ingredient.fetch_option)
                elif believed_stage == STAGE_FETCHED and ingredient.needs_cook:
                    all_ready_by_belief = False
                    append(ingredient.cook_option)
            append(order.assemble_option if all_ready_by_belief else order.unready_option)
        options.extend(self._fixed_options)
        return tuple(options)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def expected_primitives(self, agent: str, subgoal: Subgoal) -> int:
        return {
            "fetch": 3,
            "cook": 3,
            "assemble": 4,
            "serve": 2,
            "inspect": 1,
            "idle": 1,
        }.get(subgoal.name, 1)

    def _find_order_item(self, item: str) -> tuple[_Order, _Ingredient] | None:
        if ":" not in item:
            return None
        order_name, ingredient_name = item.split(":", 1)
        for order in self.orders:
            if order.name == order_name:
                ingredient = order.ingredients.get(ingredient_name)
                if ingredient is not None:
                    return order, ingredient
        return None

    def _travel(self, agent: str, zone: str) -> tuple[int, float]:
        cook = self._cooks[agent]
        distance = abs(ZONE_INDEX[cook.zone] - ZONE_INDEX[zone])
        cook.zone = zone
        return distance, distance * TRAVEL_SECONDS_PER_ZONE

    def _do_fetch(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        found = self._find_order_item(subgoal.target)
        if found is None:
            return ExecutionOutcome.failure(f"unknown item {subgoal.target!r}")
        order, ingredient = found
        if order.arrival_step > self.state.step_index or order.served:
            return ExecutionOutcome.failure("order not active")
        if not self.claim(f"item:{subgoal.target}", agent):
            return ExecutionOutcome.failure("item claimed by teammate")
        if not self.claim_slot("zone:pantry", agent, ZONE_CAPACITY):
            return ExecutionOutcome.failure("pantry congested", actuation_seconds=1.0)
        moves, travel_time = self._travel(agent, "pantry")
        if ingredient.stage != STAGE_NEEDED:
            return ExecutionOutcome(
                success=False,
                primitive_count=moves + 1,
                compute=ComputeCost(actionlist_actions=1),
                actuation_seconds=travel_time + OPERATE_SECONDS,
                reason="already fetched",
            )
        ingredient.stage = STAGE_FETCHED
        self._world_changed()
        destination = "stove" if ingredient.needs_cook else "assembly"
        extra_moves, extra_time = self._travel(agent, destination)
        return ExecutionOutcome(
            success=True,
            primitive_count=moves + extra_moves + 2,
            compute=ComputeCost(actionlist_actions=moves + extra_moves + 2),
            actuation_seconds=travel_time + extra_time + OPERATE_SECONDS,
        )

    def _do_cook(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        found = self._find_order_item(subgoal.target)
        if found is None:
            return ExecutionOutcome.failure(f"unknown item {subgoal.target!r}")
        _order, ingredient = found
        if not self.claim("station:stove", agent):
            return ExecutionOutcome.failure("stove occupied")
        moves, travel_time = self._travel(agent, "stove")
        if ingredient.stage != STAGE_FETCHED or not ingredient.needs_cook:
            return ExecutionOutcome(
                success=False,
                primitive_count=moves + 1,
                compute=ComputeCost(actionlist_actions=1),
                actuation_seconds=travel_time + OPERATE_SECONDS,
                reason="nothing to cook",
            )
        ingredient.stage = STAGE_COOKED
        self._world_changed()
        extra_moves, extra_time = self._travel(agent, "assembly")
        return ExecutionOutcome(
            success=True,
            primitive_count=moves + extra_moves + 2,
            compute=ComputeCost(actionlist_actions=moves + extra_moves + 2),
            actuation_seconds=travel_time + extra_time + 2 * OPERATE_SECONDS,
        )

    def _do_assemble(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        order = next((o for o in self.orders if o.name == subgoal.target), None)
        if order is None:
            return ExecutionOutcome.failure(f"unknown order {subgoal.target!r}")
        if not self.claim("station:assembly", agent):
            return ExecutionOutcome.failure("assembly station occupied")
        moves, travel_time = self._travel(agent, "assembly")
        if order.assembled or order.served:
            return ExecutionOutcome.failure("order already assembled")
        if not all(ingredient.ready for ingredient in order.ingredients.values()):
            return ExecutionOutcome(
                success=False,
                primitive_count=moves + 1,
                compute=ComputeCost(actionlist_actions=1),
                actuation_seconds=travel_time + OPERATE_SECONDS,
                reason="missing ingredients",
            )
        order.assembled = True
        self._world_changed()
        n_items = len(order.ingredients)
        return ExecutionOutcome(
            success=True,
            primitive_count=moves + n_items + 1,
            compute=ComputeCost(actionlist_actions=moves + n_items + 1),
            actuation_seconds=travel_time + n_items * OPERATE_SECONDS,
        )

    def _do_serve(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        order = next((o for o in self.orders if o.name == subgoal.target), None)
        if order is None:
            return ExecutionOutcome.failure(f"unknown order {subgoal.target!r}")
        if not self.claim_slot("zone:window", agent, ZONE_CAPACITY):
            return ExecutionOutcome.failure("window congested", actuation_seconds=1.0)
        moves, travel_time = self._travel(agent, "window")
        if order.expired:
            return ExecutionOutcome(
                success=False,
                primitive_count=moves + 1,
                compute=ComputeCost(actionlist_actions=1),
                actuation_seconds=travel_time + OPERATE_SECONDS,
                reason="order expired",
            )
        if not order.assembled or order.served:
            return ExecutionOutcome(
                success=False,
                primitive_count=moves + 1,
                compute=ComputeCost(actionlist_actions=1),
                actuation_seconds=travel_time + OPERATE_SECONDS,
                reason="order not ready",
            )
        order.served = True
        self._world_changed()
        return ExecutionOutcome(
            success=True,
            primitive_count=moves + 1,
            compute=ComputeCost(actionlist_actions=moves + 1),
            actuation_seconds=travel_time + OPERATE_SECONDS,
            progress_delta=1.0 / max(1, len(self.orders)),
        )

    def _do_inspect(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        if subgoal.target not in ZONE_INDEX:
            return ExecutionOutcome.failure(f"unknown zone {subgoal.target!r}")
        moves, travel_time = self._travel(agent, subgoal.target)
        return ExecutionOutcome(
            success=True,
            primitive_count=max(1, moves),
            compute=ComputeCost(actionlist_actions=max(1, moves)),
            actuation_seconds=travel_time + 0.4,
        )

    # ------------------------------------------------------------------ #
    # Goals
    # ------------------------------------------------------------------ #

    def goal_progress(self) -> float:
        served = sum(1 for order in self.orders if order.served)
        return served / max(1, len(self.orders))

    def describe_task(self) -> str:
        dishes = ", ".join(order.dish for order in self.orders)
        return (
            f"Kitchen task: cook and serve {len(self.orders)} orders "
            f"({dishes}) before the shift ends."
        )
