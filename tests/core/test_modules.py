"""Tests for the six building-block modules."""

import numpy as np
import pytest
from conftest import commit_alone, small_env

from repro.core.beliefs import DeliveryIndex
from repro.core.clock import ModuleName
from repro.core.modules.communication import CommunicationModule
from repro.core.modules.execution import ExecutionModule
from repro.core.modules.memory import MemoryModule
from repro.core.modules.planning import PlanningModule
from repro.core.modules.reflection import ReflectionModule
from repro.core.modules.sensing import SensingModule
from repro.core.types import Candidate, Decision, Fact, Message, Observation, Subgoal
from repro.envs.base import ExecutionOutcome
from repro.llm.simulated import SimulatedLLM


def make_llm(profile="gpt-4", seed=0):
    return SimulatedLLM(profile, rng=np.random.default_rng(seed))


@pytest.fixture
def env():
    built = small_env("household", difficulty="easy", seed=0)
    built.tick()
    return built


class TestSensing:
    def test_symbolic_feed_when_no_model(self, context, env):
        module = SensingModule(context, model=None)
        facts = module.sense(env)
        assert facts == tuple(env.visible_facts("agent_0"))

    def test_perception_charges_sensing_budget(self, context, env, clock):
        module = SensingModule(context, model="mask-rcnn")
        module.sense(env)
        assert clock.elapsed_by_module()[ModuleName.SENSING] > 0.1

    def test_noise_possible(self, context, env):
        module = SensingModule(context, model="mask-rcnn")
        ground = set(env.visible_facts("agent_0"))
        seen_subsets = [set(module.sense(env)) <= ground or True for _ in range(5)]
        assert all(seen_subsets)


class TestMemory:
    def make(self, context, capacity=10, dual=False):
        return MemoryModule(
            context,
            capacity_steps=capacity,
            static_facts=[Fact("fixture", "in", "kitchen")],
            dual=dual,
        )

    def test_store_and_retrieve(self, context):
        memory = self.make(context)
        memory.store_observation((Fact("mug", "located_in", "kitchen", step=1),))
        retrieved = memory.retrieve(step=1)
        assert any(f.subject == "mug" for f in retrieved.facts)

    def test_window_expires_old_facts(self, context):
        memory = self.make(context, capacity=3)
        memory.store_observation((Fact("mug", "located_in", "kitchen", step=1),))
        retrieved = memory.retrieve(step=10)
        assert not any(f.subject == "mug" for f in retrieved.facts)

    def test_newest_value_wins(self, context):
        memory = self.make(context, capacity=30)
        memory.store_observation((Fact("mug", "located_in", "kitchen", step=1),))
        memory.store_observation((Fact("mug", "located_in", "bedroom", step=2),))
        retrieved = memory.retrieve(step=3)
        mug = [f for f in retrieved.facts if f.subject == "mug"]
        assert mug[0].value == "bedroom"

    def test_retrieval_latency_grows_with_entries(self, context, clock):
        memory = self.make(context, capacity=100)
        memory.retrieve(step=1)
        small = clock.elapsed_by_phase()[(ModuleName.MEMORY, "retrieve")]
        for step in range(1, 50):
            memory.store_observation(
                tuple(Fact(f"o{i}", "at", "x", step=step) for i in range(5))
            )
        memory.retrieve(step=50)
        large = clock.elapsed_by_phase()[(ModuleName.MEMORY, "retrieve")] - small
        assert large > small

    def test_beliefs_apply_negative_evidence(self, context):
        memory = self.make(context, capacity=30)
        memory.store_observation((Fact("mug", "located_in", "kitchen", step=1),))
        beliefs = memory.beliefs(
            step=2, current_facts=(), position="kitchen", retrieved=memory.retrieve(2)
        )
        assert beliefs.value("mug", "located_in") is None

    def test_negative_evidence_needs_matching_room(self, context):
        memory = self.make(context, capacity=30)
        memory.store_observation((Fact("mug", "located_in", "kitchen", step=1),))
        beliefs = memory.beliefs(
            step=2, current_facts=(), position="bedroom", retrieved=memory.retrieve(2)
        )
        assert beliefs.value("mug", "located_in") == "kitchen"

    def test_forget_removes_slot_history(self, context):
        memory = self.make(context)
        memory.store_observation((Fact("mug", "located_in", "kitchen", step=1),))
        memory.forget("mug", "located_in")
        retrieved = memory.retrieve(step=1)
        assert not any(f.subject == "mug" for f in retrieved.facts)

    def test_dialogue_window(self, context):
        memory = self.make(context, capacity=5)
        messages = [Message(sender="a1", recipients=(), step=step) for step in (1, 9)]
        commit_alone(memory, messages)
        assert len(memory.retrieve(step=10).dialogue) == 1

    def test_out_of_order_store_raises(self, context):
        """Windows are bisected over step-ordered stores, so a store that
        goes back in time is refused rather than served wrong."""
        memory = self.make(context)
        memory.store_action(5, Subgoal("fetch", target="mug"), True)
        with pytest.raises(ValueError, match="out-of-order action"):
            memory.store_action(4, Subgoal("fetch", target="mug"), True)
        later, earlier = (Message(sender="a1", recipients=(), step=step) for step in (5, 3))
        commit_alone(memory, [later])
        with pytest.raises(ValueError, match="out-of-order dialogue"):
            commit_alone(memory, [earlier])

    def test_flush_with_decreasing_steps_raises(self, context):
        """A flush whose message steps go back in time is refused whole:
        nothing of it reaches the stores."""
        memory = self.make(context)
        messages = [Message(sender="a1", recipients=(), step=step) for step in (4, 2)]
        with pytest.raises(ValueError, match="out-of-order flush"):
            commit_alone(memory, messages)
        assert memory.retrieve(step=5).dialogue == []

    def test_flush_older_than_stored_dialogue_raises(self, context):
        """The first message a flush addresses to a memory may not precede
        its stored dialogue; unaddressed older messages do not count."""
        memory = self.make(context)
        commit_alone(memory, [Message(sender="a1", recipients=(), step=5)])
        older, newer = (Message(sender="a1", recipients=(), step=step) for step in (3, 7))
        index = DeliveryIndex([older, newer], [(), ()])
        with pytest.raises(ValueError, match="out-of-order dialogue store: step 3 after step 5"):
            memory.commit_staged_messages(index, [True, True])
        memory.commit_staged_messages(index, [False, True])
        assert [message.step for message in memory.retrieve(step=8).dialogue] == [5, 7]

    def test_backwards_window_raises(self, context):
        """The window start only moves forward, so a retrieval whose window
        starts before an earlier one's is refused."""
        memory = self.make(context, capacity=5)
        memory.store_observation((Fact("mug", "located_in", "kitchen", step=1),))
        memory.retrieve(step=50)
        with pytest.raises(ValueError, match="window moved backwards"):
            memory.retrieve(step=10)

    def test_dual_memory_skips_confusion(self, context):
        memory = self.make(context, capacity=200, dual=True)
        for step in range(1, 120):
            memory.store_observation(
                (
                    Fact("mug", "located_in", "kitchen" if step % 2 else "bedroom", step=step),
                )
            )
        for _ in range(30):
            assert not memory.retrieve(step=120).confused

    def test_capacity_validation(self, context):
        with pytest.raises(ValueError):
            self.make(context, capacity=0)


#: A step-1 observation from the kitchen with no facts in view.
KITCHEN = Observation(agent="agent_0", step=1, position="kitchen", facts=())


class TestPlanning:
    def candidates(self):
        return [
            Candidate(subgoal=Subgoal("good"), utility=1.0),
            Candidate(subgoal=Subgoal("meh"), utility=0.3),
        ]

    def test_decide_charges_planning_budget(self, context, clock, metrics):
        planner = PlanningModule(context, make_llm(), task_text="do things", difficulty="easy")
        prompt = planner.build_prompt(KITCHEN, [], [], [], self.candidates())
        planner.decide(self.candidates(), prompt)
        assert clock.elapsed_by_module()[ModuleName.PLANNING] > 0.5
        assert metrics.llm_calls == 1

    def test_multi_step_single_call(self, context, metrics):
        planner = PlanningModule(context, make_llm(), task_text="t", difficulty="easy")
        prompt = planner.build_prompt(KITCHEN, [], [], [], self.candidates())
        decisions = planner.decide_multi(self.candidates(), prompt, horizon=3)
        assert len(decisions) == 3
        assert metrics.llm_calls == 1

    def test_multi_step_avoids_duplicates_when_possible(self, context):
        planner = PlanningModule(context, make_llm(), task_text="t", difficulty="easy")
        candidates = [
            Candidate(subgoal=Subgoal(f"option_{i}"), utility=1.0 - 0.1 * i)
            for i in range(4)
        ]
        prompt = planner.build_prompt(KITCHEN, [], [], [], candidates)
        decisions = planner.decide_multi(candidates, prompt, horizon=3)
        names = [d.subgoal.name for d in decisions]
        assert len(set(names)) == 3

    def test_horizon_validation(self, context):
        planner = PlanningModule(context, make_llm(), task_text="t", difficulty="easy")
        prompt = planner.build_prompt(KITCHEN, [], [], [], self.candidates())
        # One subgoal is a plain decision (EmbodiedAgent.plan calls decide).
        for horizon in (0, 1):
            with pytest.raises(ValueError):
                planner.decide_multi(self.candidates(), prompt, horizon=horizon)


class TestCommunication:
    def test_compose_creates_message(self, context, metrics):
        module = CommunicationModule(context, make_llm())
        message = module.compose(
            step=1,
            recipients=("a1",),
            known_facts=[Fact("box", "located_in", "hall", step=1)],
            intent=Subgoal("pickup", target="box"),
            dialogue=[],
        )
        assert message is not None
        assert message.facts
        assert metrics.llm_calls == 1

    def test_filter_suppresses_repeat(self, context):
        module = CommunicationModule(context, make_llm(), filter_redundant=True)
        facts = [Fact("box", "located_in", "hall", step=1)]
        first = module.compose(1, ("a1",), facts, None, [])
        second = module.compose(2, ("a1",), facts, None, [])
        assert first is not None
        assert second is None

    def test_new_fact_reopens_channel(self, context):
        module = CommunicationModule(context, make_llm(), filter_redundant=True)
        module.compose(1, ("a1",), [Fact("box", "located_in", "hall", step=1)], None, [])
        message = module.compose(
            2, ("a1",), [Fact("box", "located_in", "office", step=2)], None, []
        )
        assert message is not None

    def test_intent_facts(self):
        message = Message(
            sender="a0",
            recipients=("a1",),
            step=3,
            intent=Subgoal("pickup", target="box_1"),
        )
        facts = CommunicationModule.intent_facts(message)
        assert facts[0].subject == "box_1"
        assert facts[0].relation == "targeted_by"
        assert facts[0].value == "a0"

    def test_non_sharable_relations_excluded(self, context):
        module = CommunicationModule(context, make_llm())
        payload = module.sharable_facts(
            [
                Fact("hall", "visited", "true", step=3),
                Fact("box", "located_in", "hall", step=2),
            ]
        )
        assert all(f.relation == "located_in" for f in payload)


class TestReflection:
    def decision(self, fault=None):
        return Decision(
            subgoal=Subgoal("fetch", target="mug"),
            fault=fault,
            prompt_tokens=100,
            output_tokens=20,
        )

    def failed_outcome(self):
        return ExecutionOutcome.failure("object unavailable")

    def test_detects_failure_and_repairs_location(self, context):
        module = ReflectionModule(context, make_llm())
        detected = 0
        for _ in range(30):
            report = module.review(1, self.decision(), self.failed_outcome())
            if report.judged_failure:
                detected += 1
                assert report.forget_subject == "mug"
                assert report.should_replan
        assert detected > 20

    def test_non_fetch_failure_does_not_forget(self, context):
        module = ReflectionModule(context, make_llm())
        decision = Decision(
            subgoal=Subgoal("deliver", target="mug", destination="fridge"),
            fault=None,
            prompt_tokens=0,
            output_tokens=0,
        )
        for _ in range(30):
            report = module.review(1, decision, self.failed_outcome())
            if report.judged_failure:
                assert report.forget_subject == ""

    def test_successful_productive_step_rarely_flagged(self, context):
        module = ReflectionModule(context, make_llm())
        good = ExecutionOutcome(
            success=True, primitive_count=3, compute=__import__(
                "repro.planners.costmodel", fromlist=["ComputeCost"]
            ).ComputeCost(), actuation_seconds=1.0, progress_delta=0.2
        )
        flags = sum(
            1 for _ in range(100) if module.review(1, self.decision(), good).judged_failure
        )
        assert flags < 15

    def test_reflection_charges_budget(self, context, clock):
        module = ReflectionModule(context, make_llm())
        module.review(1, self.decision(), self.failed_outcome())
        assert clock.elapsed_by_module()[ModuleName.REFLECTION] > 0.5


class TestExecution:
    def test_grounded_execution_charges_budget(self, context, clock, env):
        module = ExecutionModule(context, enabled=True)
        obj_name = next(iter(env.goals))
        outcome = module.execute(env, Subgoal(name="fetch", target=obj_name))
        assert outcome.success
        assert clock.elapsed_by_module()[ModuleName.EXECUTION] > 0

    def test_disabled_without_fallback_rejected(self, context):
        with pytest.raises(ValueError):
            ExecutionModule(context, enabled=False, fallback_llm=None)

    def test_llm_primitive_mode_costs_many_calls(self, context, metrics, env):
        module = ExecutionModule(context, enabled=False, fallback_llm=make_llm())
        obj_name = next(iter(env.goals))
        module.execute(env, Subgoal(name="fetch", target=obj_name))
        assert metrics.llm_calls >= 1

    def test_llm_primitive_mode_often_derails(self, context, env):
        module = ExecutionModule(
            context, enabled=False, fallback_llm=make_llm("llama-3-8b")
        )
        failures = 0
        for _ in range(20):
            outcome = module.execute(env, Subgoal(name="explore", target="kitchen"))
            failures += not outcome.success
        assert failures > 0
