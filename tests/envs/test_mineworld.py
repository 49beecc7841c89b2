"""Behavioural tests for the mineworld crafting environment."""

import numpy as np
import pytest
from conftest import small_env
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.beliefs import Beliefs
from repro.core.types import Fact, Subgoal
from repro.envs.mineworld import (
    AREAS,
    GATHER_TOOL,
    RECIPES,
    RESOURCE_AREAS,
    STATIONS,
    demand_plan,
    requirement_closure,
)


def build(difficulty="easy", seed=0, **params):
    env = small_env("mineworld", difficulty=difficulty, seed=seed, **params)
    env.tick()
    return env


class TestRequirementClosure:
    def test_includes_recipe_chain(self):
        needed = requirement_closure("stone_pickaxe")
        assert {"stone_pickaxe", "stick", "planks", "crafting_table"} <= needed

    def test_includes_tool_dependencies(self):
        """Mining cobblestone needs the wooden pickaxe even though no
        recipe lists it — the bug class this regression test pins."""
        assert "wooden_pickaxe" in requirement_closure("stone_pickaxe")
        assert "stone_pickaxe" in requirement_closure("iron_pickaxe")
        assert "iron_pickaxe" in requirement_closure("diamond_pickaxe")

    def test_diamond_closure_is_superset_of_iron(self):
        assert requirement_closure("iron_pickaxe") <= requirement_closure(
            "diamond_pickaxe"
        )


class TestCraftingFlow:
    def _player(self, env):
        return env._players["agent_0"]

    def test_gather_requires_tool_tier(self, rng):
        env = build()
        outcome = env.execute("agent_0", Subgoal(name="gather", target="cobblestone"), rng)
        assert not outcome.success
        assert "wooden_pickaxe" in outcome.reason

    def test_gather_log_works_bare_handed(self, rng):
        env = build()
        outcome = env.execute("agent_0", Subgoal(name="gather", target="log"), rng)
        assert outcome.success
        assert self._player(env).count("log") >= 1

    def test_craft_requires_ingredients(self, rng):
        env = build()
        outcome = env.execute("agent_0", Subgoal(name="craft", target="planks"), rng)
        assert not outcome.success

    def test_full_chain_to_wooden_pickaxe(self, rng):
        env = build()
        player = self._player(env)
        for _ in range(4):
            env.execute("agent_0", Subgoal(name="gather", target="log"), rng)
        for _ in range(6):
            env.execute("agent_0", Subgoal(name="craft", target="planks"), rng)
        for _ in range(2):
            env.execute("agent_0", Subgoal(name="craft", target="stick"), rng)
        env.execute("agent_0", Subgoal(name="craft", target="crafting_table"), rng)
        outcome = env.execute("agent_0", Subgoal(name="craft", target="wooden_pickaxe"), rng)
        assert outcome.success, (outcome.reason, dict(player.inventory))
        assert player.count("wooden_pickaxe") == 1

    def test_goal_craft_completes_task(self, rng):
        env = build(goal_item="planks")
        env.execute("agent_0", Subgoal(name="gather", target="log"), rng)
        outcome = env.execute("agent_0", Subgoal(name="craft", target="planks"), rng)
        assert outcome.success
        assert env.is_success()

    def test_stations_not_consumed(self, rng):
        env = build()
        player = self._player(env)
        player.add("planks", 10)
        player.add("stick", 10)
        env.execute("agent_0", Subgoal(name="craft", target="crafting_table"), rng)
        env.execute("agent_0", Subgoal(name="craft", target="wooden_pickaxe"), rng)
        assert player.count("crafting_table") == 1


class TestSearchGather:
    def test_search_variant_can_fail(self):
        env = build(seed=1)
        rng = np.random.default_rng(0)
        outcomes = [
            env.execute(
                "agent_0",
                Subgoal(name="gather", target="log", destination="search"),
                rng,
            )
            for _ in range(20)
        ]
        assert any(not o.success for o in outcomes)
        assert any(o.success for o in outcomes)

    def test_known_deposit_gather_never_roams(self, rng):
        env = build(seed=1)
        for _ in range(10):
            outcome = env.execute("agent_0", Subgoal(name="gather", target="log"), rng)
            assert outcome.success


class TestCandidates:
    def test_unknown_deposit_offers_search_gather(self):
        env = build()
        beliefs = Beliefs.from_facts(env.static_facts())
        candidates = env.candidates("agent_0", beliefs)
        searches = [
            c
            for c in candidates
            if c.subgoal.name == "gather" and c.subgoal.destination == "search"
        ]
        assert searches

    def test_known_deposit_upgrades_utility(self):
        env = build()
        beliefs = Beliefs.from_facts(env.static_facts())
        beliefs.update(
            [Fact("log_deposit", "located_in", env.deposit_area["log"], step=1)]
        )
        candidates = env.candidates("agent_0", beliefs)
        direct = [
            c
            for c in candidates
            if c.subgoal.name == "gather"
            and c.subgoal.target == "log"
            and c.subgoal.destination != "search"
        ]
        assert direct and direct[0].utility > 0.6

    def test_unneeded_craft_is_low_utility_bait(self, rng):
        env = build(goal_item="planks")
        player = env._players["agent_0"]
        player.add("log", 10)
        player.add("planks", 5)
        candidates = env.candidates("agent_0", Beliefs())
        # planks goal already satisfied -> further planks crafting is bait
        bait = [c for c in candidates if c.subgoal == Subgoal("craft", "planks")]
        if bait:
            assert bait[0].utility <= 0.2


class TestDifficultyGoals:
    @pytest.mark.parametrize(
        "difficulty,goal",
        [("easy", "stone_pickaxe"), ("medium", "iron_pickaxe"), ("hard", "diamond_pickaxe")],
    )
    def test_goal_by_difficulty(self, difficulty, goal):
        assert build(difficulty=difficulty).goal_item == goal

    def test_invalid_goal_item_rejected(self):
        with pytest.raises(ValueError):
            build(goal_item="unobtainium")


class TestRecipeTable:
    def test_all_gatherables_have_areas_and_tools(self):
        for resource in ("log", "cobblestone", "iron_ore", "diamond"):
            assert resource in GATHER_TOOL

    def test_recipes_form_dag(self):
        # Kahn's check: repeatedly remove items with no craftable deps.
        remaining = dict(RECIPES)
        while remaining:
            removable = [
                item
                for item, recipe in remaining.items()
                if all(ingredient not in remaining for ingredient in recipe)
            ]
            assert removable, f"cycle among {sorted(remaining)}"
            for item in removable:
                del remaining[item]


# ---------------------------------------------------------------------- #
# The one-pass demand plan against the recursive calculator it replaced
# ---------------------------------------------------------------------- #


class _ReferenceDeficits:
    """Memoized recursive demand propagation, kept as the plan's oracle.

    Demand flows down from the goal: recipe ingredients are demanded in
    proportion to their consumers' deficits, stations at most once, and a
    tool is demanded while any resource gated on it still has a deficit.
    A re-entrant query returns zero; on the shipped tables it never
    happens, since the demand graph is a DAG.
    """

    def __init__(self, goal: str, needed: set[str], inventory: dict[str, int]) -> None:
        self.goal = goal
        self.needed = needed
        self.inventory = inventory
        self._memo: dict[str, int] = {}
        self._in_progress: set[str] = set()

    def count(self, item: str) -> int:
        return self.inventory.get(item, 0)

    def item_deficit(self, item: str) -> int:
        if item in self._memo:
            return self._memo[item]
        if item in self._in_progress:
            return 0
        self._in_progress.add(item)
        try:
            deficit = self._compute_item(item)
        finally:
            self._in_progress.discard(item)
        self._memo[item] = deficit
        return deficit

    def _compute_item(self, item: str) -> int:
        if item == self.goal:
            return 0 if self.count(item) >= 1 else 1
        demanded = 0
        for consumer in self.needed:
            recipe = RECIPES.get(consumer, {})
            if item not in recipe:
                continue
            consumer_deficit = self.item_deficit(consumer)
            if consumer_deficit <= 0:
                continue
            count = recipe[item]
            demanded += 1 if count == 0 else count * consumer_deficit
        if item in STATIONS:
            demanded = min(demanded, 1)
        if self.count(item) == 0 and self._is_needed_tool(item):
            demanded = max(demanded, 1)
        return max(0, demanded - self.count(item))

    def resource_deficit(self, resource: str) -> int:
        demanded = 0
        for consumer in self.needed:
            recipe = RECIPES.get(consumer, {})
            if resource in recipe and self.item_deficit(consumer) > 0:
                demanded += recipe[resource] * max(1, self.item_deficit(consumer))
        return max(0, demanded - self.count(resource))

    def _is_needed_tool(self, item: str) -> bool:
        return any(
            tool == item and self.resource_deficit(resource) > 0
            for resource, tool in GATHER_TOOL.items()
        )


def reference_economy(env, inventory: dict[str, int], deposits) -> list[tuple]:
    """The craft and gather menu as (name, target, destination, utility,
    feasible, fault) rows, computed through :class:`_ReferenceDeficits`."""
    calculator = _ReferenceDeficits(env.goal_item, env.needed_items, inventory)
    count = calculator.count

    def craftable(item: str) -> bool:
        return all(
            count(ingredient) >= max(1, units) for ingredient, units in RECIPES[item].items()
        )

    rows: list[tuple] = []
    for item in sorted(RECIPES):
        needed = item in env.needed_items and calculator.item_deficit(item) > 0
        if craftable(item) and needed:
            utility = 1.0 if item == env.goal_item else 0.9
            rows.append(("craft", item, "", utility, True, None))
        elif craftable(item):
            rows.append(("craft", item, "", 0.15, True, None))
        elif needed:
            rows.append(("craft", item, "", 0.0, False, None))
    for resource, known_area in zip(RESOURCE_AREAS, deposits):
        deficit = calculator.resource_deficit(resource)
        tool = GATHER_TOOL[resource]
        has_tool = not tool or count(tool) >= 1
        if known_area is None:
            if deficit > 0 and has_tool:
                rows.append(("gather", resource, "search", 0.6, True, None))
            continue
        if deficit > 0 and has_tool:
            rows.append(("gather", resource, "", 0.8, True, None))
        elif deficit > 0:
            rows.append(("gather", resource, "", 0.0, False, None))
        elif has_tool:
            rows.append(("gather", resource, "", 0.1, True, None))
    return rows


def _rows(candidates) -> list[tuple]:
    return [
        (c.subgoal.name, c.subgoal.target, c.subgoal.destination, c.utility, c.feasible, c.fault)
        for c in candidates
    ]


_STOCK = sorted(set(RECIPES) | set(RESOURCE_AREAS))


class TestDemandPlan:
    @settings(max_examples=400, deadline=None)
    @given(
        goal=st.sampled_from(sorted(RECIPES)),
        # Sparse inventories (absent = 0) keep many consumers short at once,
        # which is where the station clamp and the tool gate bite.
        inventory=st.dictionaries(st.sampled_from(_STOCK), st.integers(min_value=1, max_value=6)),
        deposits=st.lists(
            st.sampled_from((None, *AREAS)),
            min_size=len(RESOURCE_AREAS),
            max_size=len(RESOURCE_AREAS),
        ),
    )
    def test_economy_options_match_reference(self, goal, inventory, deposits):
        env = small_env("mineworld", difficulty="easy", seed=0, goal_item=goal)
        player = env._players["agent_0"]
        player.inventory = inventory
        deposits = tuple(deposits)
        options = env._economy_options(player, deposits)
        assert _rows(options) == reference_economy(env, player.inventory, deposits)

    @pytest.mark.parametrize("goal", sorted(RECIPES))
    def test_plan_evaluates_every_node_after_what_it_reads(self, goal):
        position = {step.name: index for index, step in enumerate(demand_plan(goal))}
        needed = requirement_closure(goal)
        assert set(position) == needed | set(RESOURCE_AREAS)
        for name in position:
            for consumer in needed:
                if name in RECIPES[consumer]:
                    assert position[consumer] < position[name], (name, consumer)
        for resource, tool in GATHER_TOOL.items():
            if tool in needed:
                assert position[resource] < position[tool], (tool, resource)

    @pytest.mark.parametrize(
        "item,recipe,goal",
        [
            # A recipe edge back down the tree: planks that need sticks.
            ("planks", {"log": 1, "stick": 1}, "stick"),
            # A tool edge closing the loop: the pickaxe that mines
            # cobblestone needs cobblestone.
            ("wooden_pickaxe", {"stick": 2, "cobblestone": 1, "crafting_table": 0}, "furnace"),
        ],
    )
    def test_cyclic_table_raises(self, monkeypatch, item, recipe, goal):
        monkeypatch.setitem(RECIPES, item, recipe)
        with pytest.raises(ValueError, match="cycle"):
            demand_plan(goal)
