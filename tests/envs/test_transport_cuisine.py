"""Behavioural tests for the transport and cuisine environments."""

import numpy as np
from conftest import small_env
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.beliefs import Beliefs
from repro.core.errors import FaultKind
from repro.core.types import Candidate, Fact, Subgoal
from repro.envs.cuisine import RECIPES, STAGE_FETCHED, STAGE_NEEDED, ZONES
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
        ingredient = next(iter(order.ingredients.values()))
        outcome = env.execute("agent_0", Subgoal(name="fetch", target=ingredient.item_id), rng)
        assert outcome.success
        assert ingredient.stage == STAGE_FETCHED

    def test_double_fetch_wasted(self, rng):
        env = cuisine()
        order = self._first_order(env)
        item = next(iter(order.ingredients.values())).item_id
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
            env.execute("agent_0", Subgoal(name="fetch", target=ingredient.item_id), rng)
            if ingredient.needs_cook:
                env.tick()
                env.execute("agent_0", Subgoal(name="cook", target=ingredient.item_id), rng)
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


# The per-call builders a cuisine view and menu must equal: fresh objects
# from the world state on every call, with no memo to go stale.


def reference_active_orders(env) -> list:
    step = env.state.step_index
    return [
        order
        for order in env.orders
        if order.arrival_step <= step and not order.served and not order.expired
    ]


def reference_visible_facts(env, agent) -> list[Fact]:
    zone = env.agent_position(agent)
    step = env.state.step_index
    facts = [Fact(zone, "visited", "true", step)]
    for order in reference_active_orders(env):
        facts.append(Fact(order.name, "requests", order.dish, step))
        if order.assembled:
            facts.append(Fact(order.name, "status", "assembled", step))
        for ingredient in order.ingredients.values():
            if ingredient.zone == zone and ingredient.stage != STAGE_NEEDED:
                item = f"{order.name}:{ingredient.name}"
                facts.append(Fact(item, "stage", ingredient.stage, step))
    return sorted(facts, key=lambda fact: (fact.subject, fact.relation))


def reference_candidates(env, beliefs) -> list[Candidate]:
    options = []
    for order in reference_active_orders(env):
        if order.assembled:
            options.append(Candidate(Subgoal("serve", order.name), 1.0))
            continue
        ready = True
        for ingredient in order.ingredients.values():
            item = f"{order.name}:{ingredient.name}"
            stage = beliefs.value(item, "stage") or STAGE_NEEDED
            if stage == STAGE_NEEDED:
                ready = False
                options.append(Candidate(Subgoal("fetch", item), 0.8))
            elif stage == STAGE_FETCHED and ingredient.needs_cook:
                ready = False
                options.append(Candidate(Subgoal("cook", item), 0.9))
        if ready:
            options.append(Candidate(Subgoal("assemble", order.name), 0.95))
        else:
            options.append(Candidate(Subgoal("serve", order.name), 0.0, feasible=False))
    for zone in ("stove", "assembly"):
        options.append(Candidate(Subgoal("inspect", zone), 0.25))
    options.append(Candidate(Subgoal("idle"), 0.02))
    for index in range(2):
        options.append(
            Candidate(
                Subgoal("fetch", f"imaginary_object_{index}"), 0.0, False, FaultKind.HALLUCINATION
            )
        )
    return options


class TestCuisineViews:
    """A zone view and the order board are memoized until the world
    changes; every state write must drop them, or a cook reads a stale
    view after a teammate's write in the same step."""

    @settings(max_examples=40, deadline=None)
    @given(
        difficulty=st.sampled_from(("easy", "medium", "hard")),
        n_agents=st.integers(min_value=2, max_value=12),
        deadline_steps=st.sampled_from((0, 1, 2, 4)),
        seed=st.integers(min_value=0, max_value=1000),
        data=st.data(),
    )
    def test_views_and_menus_match_per_call_builders(
        self, difficulty, n_agents, deadline_steps, seed, data
    ):
        env = small_env(
            "cuisine",
            difficulty=difficulty,
            n_agents=n_agents,
            seed=seed,
            deadline_steps=deadline_steps,
        )
        rng = np.random.default_rng(seed)
        beliefs = {agent: Beliefs() for agent in env.agents}
        targets = [order.name for order in env.orders] + list(ZONES)
        for order in env.orders:
            targets.extend(f"{order.name}:{name}" for name in order.ingredients)

        def check() -> None:
            for agent in env.agents:
                view = env.visible_facts(agent)
                assert list(view) == reference_visible_facts(env, agent)
                own = beliefs[agent]
                own.update(view)
                assert list(env.candidates(agent, own)) == reference_candidates(env, own)
                blind = Beliefs()
                assert list(env.candidates(agent, blind)) == reference_candidates(env, blind)

        check()
        for _ in range(data.draw(st.integers(min_value=1, max_value=30), label="calls")):
            # A greedy cook's best option is what carries orders through
            # assembly to the window, whose writes are the rarest.
            call = data.draw(st.sampled_from(("tick", "best", "best", "candidate", "random")))
            if call == "tick":
                env.tick()
            else:
                agent = data.draw(st.sampled_from(env.agents), label="agent")
                menu = env.candidates(agent, beliefs[agent])
                if call == "best":
                    subgoal = max(menu, key=lambda option: option.utility).subgoal
                elif call == "candidate":
                    subgoal = data.draw(st.sampled_from(menu), label="option").subgoal
                else:
                    name = data.draw(
                        st.sampled_from(("fetch", "cook", "assemble", "serve", "inspect"))
                    )
                    subgoal = Subgoal(name, data.draw(st.sampled_from(targets), label="target"))
                env.execute(agent, subgoal, rng)
            check()
