"""Behavioural tests for the transport and cuisine environments."""

from conftest import small_env

from repro.core.beliefs import Beliefs
from repro.core.types import Subgoal
from repro.envs.cuisine import RECIPES, STAGE_FETCHED, ZONES
from repro.envs.transport import CARRY_CAPACITY


def transport(seed=0, n_agents=2, difficulty="easy"):
    env = small_env("transport", difficulty=difficulty, n_agents=n_agents, seed=seed)
    env.tick()
    return env


def cuisine(seed=0, n_agents=2, difficulty="easy"):
    env = small_env("cuisine", difficulty=difficulty, n_agents=n_agents, seed=seed)
    env.tick()
    return env


class TestTransport:
    def test_pickup_then_deposit_delivers(self, rng):
        env = transport()
        obj = next(iter(env.objects.values()))
        assert env.execute("agent_0", Subgoal(name="pickup", target=obj.name), rng).success
        outcome = env.execute("agent_0", Subgoal(name="deposit"), rng)
        assert outcome.success
        assert obj.delivered
        assert env.goal_progress() > 0

    def test_carry_capacity_enforced(self, rng):
        env = transport()
        names = list(env.objects)
        for name in names[:CARRY_CAPACITY]:
            assert env.execute("agent_0", Subgoal(name="pickup", target=name), rng).success
        overload = env.execute(
            "agent_0", Subgoal(name="pickup", target=names[CARRY_CAPACITY]), rng
        )
        assert not overload.success
        assert "hands full" in overload.reason

    def test_deposit_empty_handed_fails(self, rng):
        env = transport()
        assert not env.execute("agent_0", Subgoal(name="deposit"), rng).success

    def test_deposit_drops_all_carried(self, rng):
        env = transport()
        names = list(env.objects)[:2]
        for name in names:
            env.execute("agent_0", Subgoal(name="pickup", target=name), rng)
        outcome = env.execute("agent_0", Subgoal(name="deposit"), rng)
        assert outcome.success
        assert all(env.objects[name].delivered for name in names)

    def test_conflicting_pickups_blocked(self, rng):
        env = transport()
        name = next(iter(env.objects))
        assert env.execute("agent_0", Subgoal(name="pickup", target=name), rng).success
        blocked = env.execute("agent_1", Subgoal(name="pickup", target=name), rng)
        assert not blocked.success

    def test_all_delivered_is_success(self, rng):
        env = transport()
        for name in env.objects:
            env.execute("agent_0", Subgoal(name="pickup", target=name), rng)
            env.execute("agent_0", Subgoal(name="deposit"), rng)
        assert env.is_success()

    def test_candidates_require_known_location(self):
        env = transport()
        blind = env.candidates("agent_0", Beliefs())
        assert not [c for c in blind if c.subgoal.name == "pickup" and c.fault is None]


class TestCuisine:
    def _first_order(self, env):
        return env.orders[0]

    def test_fetch_moves_ingredient_stage(self, rng):
        env = cuisine()
        order = self._first_order(env)
        ingredient = next(iter(order.ingredients))
        item = order.item_id(ingredient)
        outcome = env.execute("agent_0", Subgoal(name="fetch", target=item), rng)
        assert outcome.success
        assert order.ingredients[ingredient].stage == STAGE_FETCHED

    def test_double_fetch_wasted(self, rng):
        env = cuisine()
        order = self._first_order(env)
        item = order.item_id(next(iter(order.ingredients)))
        env.execute("agent_0", Subgoal(name="fetch", target=item), rng)
        env.tick()  # clear claims
        repeat = env.execute("agent_1", Subgoal(name="fetch", target=item), rng)
        assert not repeat.success
        assert "already fetched" in repeat.reason

    def test_assemble_requires_all_ingredients(self, rng):
        env = cuisine()
        order = self._first_order(env)
        outcome = env.execute("agent_0", Subgoal(name="assemble", target=order.name), rng)
        assert not outcome.success

    def test_full_order_lifecycle(self, rng):
        env = cuisine()
        order = self._first_order(env)
        for ingredient in order.ingredients.values():
            env.tick()
            env.execute(
                "agent_0", Subgoal(name="fetch", target=order.item_id(ingredient.name)), rng
            )
            if ingredient.needs_cook:
                env.tick()
                env.execute(
                    "agent_0", Subgoal(name="cook", target=order.item_id(ingredient.name)), rng
                )
        env.tick()
        assert env.execute("agent_0", Subgoal(name="assemble", target=order.name), rng).success
        serve = env.execute("agent_0", Subgoal(name="serve", target=order.name), rng)
        assert serve.success
        assert order.served
        assert env.goal_progress() > 0

    def test_stove_station_contention(self, rng):
        env = cuisine(difficulty="hard", seed=4)
        assert not env.claim("station:stove", "agent_0") or not env.claim(
            "station:stove", "agent_1"
        )

    def test_orders_arrive_over_time(self):
        env = cuisine(difficulty="medium", seed=2)
        early = len(env._active_orders())
        for _ in range(30):
            env.tick()
        late = len(env._active_orders())
        assert late >= early

    def test_recipes_are_well_formed(self):
        for dish, recipe in RECIPES.items():
            assert recipe, dish
            assert all(isinstance(flag, bool) for flag in recipe.values())

    def test_zone_vocabulary(self):
        assert set(cuisine().location_vocabulary()) == set(ZONES)
