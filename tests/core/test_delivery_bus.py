"""Unit coverage for the step-batched delivery pipeline.

The episode-level behaviour of the bus is pinned by the committed
goldens (tests/core/test_goldens.py); these tests pin the component
contracts it rests on: a flush merged slot by slot from one shared index
equals sequential per-receiver delivery (usefulness, beliefs, memory
retrieval and modeled time), one batched commit leaves the same state as
per-message commits, the bus refuses memories on separate clocks (it
charges their stores on one), a step that ends with deliveries still
staged fails at its boundary, the detector leaves the rng stream where
the seed detector left it, and a step's composes share one staged
payload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import pytest
from conftest import commit_alone, linear_retrieve, percall_scheduler
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent import PerceptionBundle
from repro.core.beliefs import Beliefs, DeliveryIndex
from repro.core.bus import DeliveryBus
from repro.core.clock import SimClock
from repro.core.metrics import MetricsCollector
from repro.core.modules.base import ModuleContext
from repro.core.modules.communication import CommunicationModule
from repro.core.modules.memory import MemoryModule
from repro.core.paradigms.base import ParadigmLoop
from repro.core.runner import build_task
from repro.core.settings import RunSettings
from repro.core.types import Fact, Message, Observation, Subgoal
from repro.perception.detector import detect
from repro.perception.models import get_perception
from repro.workloads.registry import get_workload


def _facts(step: int, n: int, salt: str = "") -> tuple[Fact, ...]:
    return tuple(
        Fact(f"obj_{salt}{i}", "located_in", f"room_{(step + i) % 4}", step=step)
        for i in range(n)
    )


# ---------------------------------------------------------------------- #
# Shared-index flush vs per-receiver sequential delivery
# ---------------------------------------------------------------------- #


@dataclass
class FlushScenario:
    """A team, its starting state, and a sequence of delivery flushes."""

    names: tuple[str, ...]
    #: ``(capacity_steps, dual)`` per agent with memory; absent = no memory.
    memory: dict[str, tuple[int, bool]]
    beliefs: dict[str, list[Fact]]
    #: Observation frames stored before the first flush (memory agents).
    observations: dict[str, list[tuple[Fact, ...]]]
    #: Step of the retrieval that precedes the first flush; it moves each
    #: memory's eviction accumulator, so later commits must count facts
    #: below the window start.
    first_step: int
    #: ``(step, messages)`` per flush; each flush ends with a retrieval at
    #: ``step`` on every memory.
    flushes: list[tuple[int, list[Message]]]


class _Agent:
    """The slice of :class:`~repro.core.agent.EmbodiedAgent` the bus
    reads, plus the oracle's per-receiver staging."""

    def __init__(self, name: str, memory: MemoryModule | None) -> None:
        self.name = name
        self.memory = memory

    def stage(self, message: Message, bundle: PerceptionBundle) -> None:
        """Show ``message`` to this step's prompts, then charge its store."""
        bundle.dialogue.append(message)
        if self.memory is not None:
            self.memory.charge_store("store_dialogue")


class _Recorder:
    """Records ``record_message`` flags in call order."""

    def __init__(self) -> None:
        self.flags: list[bool] = []

    def record_message(self, useful: bool) -> None:
        self.flags.append(useful)


def _team(scenario: FlushScenario, linear: bool):
    """Agents and bundles on one shared clock; ``linear`` pins every
    memory to the full-scan reference retrieval (the oracle's)."""
    clock = SimClock()
    agents, bundles = [], {}
    for position, name in enumerate(scenario.names):
        memory = None
        if name in scenario.memory:
            capacity, dual = scenario.memory[name]
            metrics = MetricsCollector(workload="test", horizon=100)
            context = ModuleContext(
                agent=name,
                clock=clock,
                metrics=metrics,
                rng=np.random.default_rng(position),
                scheduler=percall_scheduler(clock, metrics),
            )
            static = [Fact("wall", "located_in", "hall", step=0)]
            memory = MemoryModule(context, capacity, static, dual=dual)
            if linear:
                memory.retrieve = partial(linear_retrieve, memory)
            for frame in scenario.observations.get(name, []):
                memory.store_observation(frame)
        agents.append(_Agent(name, memory))
        bundles[name] = PerceptionBundle(
            observation=Observation(agent=name, step=0, position="hall", facts=()),
            current_facts=(),
            beliefs=Beliefs.from_facts(scenario.beliefs.get(name, [])),
            memory_facts=[],
            action_records=[],
            dialogue=[],
        )
    return clock, agents, bundles


def _retrievals(agents, step: int) -> list:
    return [agent.memory.retrieve(step) for agent in agents if agent.memory is not None]


def _beliefs(bundles) -> dict:
    return {name: {f.key(): f for f in bundle.beliefs} for name, bundle in bundles.items()}


def _via_bus(scenario: FlushScenario):
    clock, agents, bundles = _team(scenario, linear=False)
    recorder = _Recorder()
    bus = DeliveryBus(agents, recorder)
    retrievals = [_retrievals(agents, scenario.first_step)]
    for step, messages in scenario.flushes:
        for message in messages:
            bus.stage(message, bundles)
        bus.flush(bundles)
        retrievals.append(_retrievals(agents, step))
    return recorder.flags, _beliefs(bundles), retrievals, clock


def _sequential(scenario: FlushScenario):
    """The oracle: per-receiver staging (:meth:`_Agent.stage`),
    :meth:`Beliefs.update` per addressed message (payload, then intent),
    per-receiver memory commits, linear retrieval."""
    clock, agents, bundles = _team(scenario, linear=True)
    by_name = {agent.name: agent for agent in agents}
    flags: list[bool] = []
    retrievals = [_retrievals(agents, scenario.first_step)]
    for step, messages in scenario.flushes:
        for message in messages:
            for name in message.recipients:
                by_name[name].stage(message, bundles[name])
        novel = [0] * len(messages)
        for agent in agents:
            beliefs = bundles[agent.name].beliefs
            for position, message in enumerate(messages):
                if agent.name in message.recipients:
                    novel[position] += beliefs.update(message.facts)
                    beliefs.update(CommunicationModule.intent_facts(message))
            if agent.memory is not None:
                own = [message for message in messages if agent.name in message.recipients]
                commit_alone(agent.memory, own)
        flags.extend(total > 0 for total in novel)
        retrievals.append(_retrievals(agents, step))
    return flags, _beliefs(bundles), retrievals, clock


def _check_flush(scenario: FlushScenario) -> list[bool]:
    """Assert the bus equals the oracle, and each receiver's memory
    winners equal the winner oracle's; returns the useful flags."""
    for _step, messages in scenario.flushes:
        index = DeliveryIndex(messages, DeliveryBus._intent_facts(messages))
        for name in scenario.names:
            addressed = [name in message.recipients for message in messages]
            assert dict(index.winners(addressed)) == dict(_newest(index, addressed))
    flags, beliefs, retrievals, clock = _via_bus(scenario)
    expected_flags, expected_beliefs, expected_retrievals, expected_clock = _sequential(
        scenario
    )
    assert flags == expected_flags
    assert beliefs == expected_beliefs
    assert retrievals == expected_retrievals
    assert clock.elapsed_by_phase() == expected_clock.elapsed_by_phase()
    assert clock.now == expected_clock.now
    return flags


SUBJECTS = ("box_0", "box_1", "mug")
#: ``targeted_by`` shares slots with intent facts: the index must not
#: assume intents and payloads never meet in one slot.
RELATIONS = ("located_in", "targeted_by")
VALUES = ("hall", "kitchen", "agent_0", "agent_1")

_pool_facts = st.builds(
    Fact,
    subject=st.sampled_from(SUBJECTS),
    relation=st.sampled_from(RELATIONS),
    value=st.sampled_from(VALUES),
    step=st.integers(min_value=0, max_value=4),
)
_intents = st.one_of(
    st.none(),
    st.just(Subgoal("explore")),
    st.builds(Subgoal, name=st.just("fetch"), target=st.sampled_from(SUBJECTS)),
)
# The strategies below draw indices, resolved modulo the drawn pool and
# team in ``flush_scenarios``, so no strategy is built per example.
#: A fact: a shared pool object, a fresh equal copy of one, or (in a
#: payload) an echo of a fact an earlier speaker of the flush sent — the
#: same object, as when a teammate passes on what it was told.
_fact_picks = st.tuples(st.sampled_from(("shared", "copy", "echo")), st.integers(0, 8))
_agent_picks = st.integers(0, 11)
_agent_states = st.tuples(
    st.none() | st.tuples(st.integers(1, 60), st.booleans()),  # memory
    st.lists(_fact_picks, max_size=3),  # beliefs
    st.lists(st.lists(_fact_picks, max_size=3), max_size=2),  # observation frames
)
_messages = st.tuples(
    _agent_picks,  # sender
    # None: the all-but-sender broadcast; else one recipient or a subset.
    st.none() | _agent_picks.map(lambda pick: [pick]) | st.lists(_agent_picks),
    st.lists(_fact_picks, max_size=5),
    _intents,
)
#: ``(step gap, dialogue rounds, speakers)`` per flush: every speaker
#: re-sends its payload tuple and intent each round, as dialogue phases do.
_flushes = st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 3), st.lists(_messages, max_size=4)),
    min_size=1,
    max_size=3,
)


@st.composite
def flush_scenarios(draw) -> FlushScenario:
    names = tuple(f"agent_{i}" for i in range(draw(st.integers(2, 12))))
    # Each drawn fact joins the pool with a conflicting value at its step
    # and a newer version of itself.
    pool = []
    for fact in draw(st.lists(_pool_facts, min_size=1, max_size=3)):
        other = VALUES[(VALUES.index(fact.value) + 1) % len(VALUES)]
        pool += [fact, replace(fact, value=other), replace(fact, step=fact.step + 1)]

    def facts(picks, spoken=()) -> tuple[Fact, ...]:
        out = []
        for kind, index in picks:
            if kind == "echo" and spoken:
                out.append(spoken[index % len(spoken)])
            elif kind == "copy":
                out.append(replace(pool[index % len(pool)]))
            else:
                out.append(pool[index % len(pool)])
        return tuple(out)

    def agents(picks) -> tuple[str, ...]:
        return tuple(dict.fromkeys(names[pick % len(names)] for pick in picks))

    states = {name: draw(_agent_states) for name in names}
    first_step = draw(st.integers(0, 48))
    step = first_step
    flushes = []
    for gap, rounds, speakers in draw(_flushes):
        step += gap
        turns, spoken = [], []
        for sender_pick, to, picks, intent in speakers:
            (sender,) = agents([sender_pick])
            recipients = (
                tuple(name for name in names if name != sender) if to is None else agents(to)
            )
            payload = facts(picks, spoken)
            spoken.extend(payload)
            turns.append((sender, recipients, payload, intent))
        messages = [
            Message(sender, recipients, step, payload, intent=intent)
            for _round in range(rounds)
            for sender, recipients, payload, intent in turns
        ]
        flushes.append((step, messages))
    return FlushScenario(
        names=names,
        memory={name: state[0] for name, state in states.items() if state[0] is not None},
        beliefs={name: list(facts(state[1])) for name, state in states.items()},
        observations={name: [facts(frame) for frame in state[2]] for name, state in states.items()},
        first_step=first_step,
        flushes=flushes,
    )


def _newest(index: DeliveryIndex, addressed):
    """The winner oracle: each slot's batch winner among the addressed
    payload arrivals, by a walk over every run of every slot.

    The winner is the arrival with the highest step, a later arrival
    winning a tie: what :meth:`Beliefs.update`'s rule leaves after
    merging those arrivals in order.  Intent runs never take part.
    Yields ``(slot, fact)`` for every slot with an addressed payload.
    """
    for key, runs in index.slots.items():
        winner = None
        for fact, payload, carriers in runs:
            if not payload or (winner is not None and fact.step < winner.step):
                continue
            if any(addressed[carrier] for carrier in carriers):
                winner = fact
        if winner is not None:
            yield key, winner


def _one_receiver(payloads, preloaded=()) -> FlushScenario:
    """``agent_1`` sends each payload to ``agent_0`` in one flush."""
    messages = [
        Message(sender="agent_1", recipients=("agent_0",), step=9, facts=payload)
        for payload in payloads
    ]
    return FlushScenario(
        names=("agent_0", "agent_1"),
        memory={"agent_0": (20, False)},
        beliefs={"agent_0": list(preloaded)},
        observations={},
        first_step=9,
        flushes=[(9, messages)],
    )


class TestSharedIndexFlush:
    @settings(max_examples=100, deadline=None)
    @given(scenario=flush_scenarios())
    def test_equals_sequential_delivery(self, scenario):
        """Random teams, recipient sets, payloads and intents: the
        shared-index flush equals sequential per-message delivery.  The
        suite's ``repro`` profile derandomizes it and keeps no example
        database (``tests/conftest.py``)."""
        _check_flush(scenario)

    def test_matches_sequential_updates(self):
        """Novelty per message equals per-message update() counts."""
        flags = _check_flush(
            _one_receiver(
                [
                    _facts(3, 4),
                    _facts(2, 3, salt="x"),
                    _facts(3, 4),  # equal copies: nothing novel the second time
                    _facts(5, 2),  # fresher provenance over the same slots
                    (),
                ]
            )
        )
        assert flags == [True, True, False, True, False]

    def test_stale_chunk_never_overwrites(self):
        scenario = _one_receiver([_facts(1, 2)], preloaded=_facts(9, 2))
        assert _check_flush(scenario) == [False]
        _flags, beliefs, _retrievals, _clock = _via_bus(scenario)
        assert all(fact.step == 9 for fact in beliefs["agent_0"].values())

    def test_run_opened_by_own_message(self):
        """Both agents broadcast one shared fact: each receiver's run
        starts with its own, unaddressed message, so the merge must take
        the run's first *addressed* arrival."""
        shared = Fact("box_0", "located_in", "hall", step=3)
        messages = [
            Message(sender, (other,), 5, facts=(shared,))
            for sender, other in (("agent_0", "agent_1"), ("agent_1", "agent_0"))
        ]
        scenario = FlushScenario(
            names=("agent_0", "agent_1"),
            memory={"agent_0": (20, False), "agent_1": (20, False)},
            beliefs={},
            observations={},
            first_step=5,
            flushes=[(5, messages)],
        )
        assert _check_flush(scenario) == [True, True]
        _flags, _beliefs, retrievals, _clock = _via_bus(scenario)
        for retrieved in retrievals[-1]:
            assert shared in retrieved.facts

    def test_repeated_arrivals_collapse_into_runs(self):
        """Dialogue rounds re-send one payload tuple and one intent; the
        index keeps one run per slot and object, not one per arrival."""
        payload = _facts(4, 2)
        messages = [
            Message(
                sender="agent_0",
                recipients=("agent_1",),
                step=4,
                facts=payload,
                intent=Subgoal("fetch", target="box_0"),
            )
            for _round in range(3)
        ]
        index = DeliveryIndex(messages, DeliveryBus._intent_facts(messages))
        assert [len(runs) for runs in index.slots.values()] == [1, 1, 1]
        assert [runs[0][2] for runs in index.slots.values()] == [[0, 1, 2]] * 3
        # The per-message columns every receiver selects from.
        assert index.steps == [4, 4, 4]
        assert all(facts is payload for facts in index.payloads)
        # Each payload slot's best run is its one run; the intent slot has none.
        assert {key: run[2] for key, run in index.best.items()} == {
            fact.key(): [0, 1, 2] for fact in payload
        }
        assert all(index.best[key] is index.slots[key][0] for key in index.best)

    def test_intents_keep_their_step(self):
        """One sender's intents at two steps in one flush stay two facts."""
        messages = [
            Message("agent_1", ("agent_0",), step, intent=Subgoal("fetch", target="box_0"))
            for step in (3, 4)
        ]
        scenario = FlushScenario(
            names=("agent_0", "agent_1"),
            memory={},
            beliefs={},
            observations={},
            first_step=4,
            flushes=[(4, messages)],
        )
        _check_flush(scenario)
        _flags, beliefs, _retrievals, _clock = _via_bus(scenario)
        assert beliefs["agent_0"][("box_0", "targeted_by")].step == 4

    def test_intent_and_payload_runs_stay_apart(self):
        """One object arriving first as an intent, then as a payload, forms
        two runs: the payload arrival alone still counts as novel and is
        the slot's batch winner for memory."""
        shared = Fact("box_0", "targeted_by", "agent_1", step=4)
        messages = [
            Message("agent_1", ("agent_2",), 4),
            Message("agent_1", ("agent_0",), 4, facts=(shared,)),
        ]
        index = DeliveryIndex(messages, [[shared], []])
        addressed = [False, True]
        useful = [False, False]
        beliefs = Beliefs()
        beliefs.merge_index(index, addressed, useful)
        assert useful == [False, True]
        assert beliefs.value("box_0", "targeted_by") == "agent_1"
        assert index.best == {shared.key(): index.slots[shared.key()][1]}
        assert index.addressed_winner(shared.key(), addressed) is shared


def _memory(capacity: int = 20) -> MemoryModule:
    clock = SimClock()
    metrics = MetricsCollector(workload="test", horizon=50)
    context = ModuleContext(
        agent="agent_0",
        clock=clock,
        metrics=metrics,
        rng=np.random.default_rng(11),
        scheduler=percall_scheduler(clock, metrics),
        step=1,
    )
    return MemoryModule(context, capacity_steps=capacity, static_facts=[], dual=False)


class TestStagedMemoryWrites:
    def test_stage_commit_equals_inline_stores(self):
        """One batched commit leaves the state per-message commits leave."""
        messages = [
            Message(sender="a1", recipients=("agent_0",), step=2, facts=_facts(2, 3)),
            Message(sender="a2", recipients=("agent_0",), step=2, facts=_facts(1, 2, "m")),
        ]
        inline = _memory()
        for message in messages:
            inline.charge_store("store_dialogue")
            commit_alone(inline, [message])
        staged = _memory()
        for _ in messages:
            staged.charge_store("store_dialogue")
        commit_alone(staged, messages)
        assert staged.context.clock.elapsed_by_phase() == (
            inline.context.clock.elapsed_by_phase()
        )
        inline.context.step = 3
        staged.context.step = 3
        assert staged.retrieve(3) == inline.retrieve(3)
        assert staged.retrieve(3).dialogue == inline.retrieve(3).dialogue

    def test_bus_refuses_memories_on_separate_clocks(self):
        """The bus charges every staged store on one memory's clock, so
        it refuses a team whose memories keep separate clocks."""
        agents = [_Agent("agent_0", _memory()), _Agent("agent_1", _memory())]
        with pytest.raises(ValueError, match="share one clock"):
            DeliveryBus(agents, _Recorder())


class _StagesWithoutFlush(ParadigmLoop):
    """A team loop whose step stages one broadcast and never flushes."""

    steps = 0

    def step(self, step: int) -> None:
        self.steps += 1
        bundles = self.perceive_all(step)
        speaker, *listeners = self.agents
        message = Message(speaker.name, tuple(agent.name for agent in listeners), step)
        self.bus.stage(message, bundles)


class TestForgottenFlush:
    def test_run_refuses_an_unflushed_step(self):
        """A step that ends with deliveries still staged raises at its own
        boundary, before the next step perceives, with memory or without."""
        coela = get_workload("coela").config
        for config in (coela, coela.without("memory")):
            task = build_task(config, difficulty="easy", seed=0)
            loop = _StagesWithoutFlush(config, task, seed=0, settings=RunSettings())
            with pytest.raises(RuntimeError, match="DeliveryBus.flush was not called"):
                loop.run()
            assert loop.steps == 1, config.name


#: The seed detector's next draw after ``_facts(4, 12)`` under
#: ``default_rng(123)``, recorded before it was retired: 12 recall draws,
#: plus 12 mislabel draws when a distractor vocabulary exists.  It kept
#: every fact for all three profiles.
SEED_NEXT_DRAW = {False: 0.8242415960974113, True: 0.18433798742847973}


class TestDetectorStreamIdentity:
    @pytest.mark.parametrize("profile_name", ["symbolic", "vit", "diffusion-world-model"])
    @pytest.mark.parametrize("distractors", [None, ["room_0", "room_1", "hall"]])
    def test_fast_lane_matches_reference(self, profile_name, distractors):
        """Same facts, same result, and — critically — the same rng state
        after as the seed detector (recorded above)."""
        profile = get_perception(profile_name)
        ground = list(_facts(4, 12))
        rng = np.random.default_rng(123)
        assert detect(ground, profile, rng, distractor_values=distractors) == tuple(ground)
        # The next draw of the episode's shared stream must be unaffected.
        assert rng.random() == SEED_NEXT_DRAW[distractors is not None]

    def test_perfect_detector_reports_frame_unchanged(self):
        profile = get_perception("symbolic")
        ground = list(_facts(7, 5))
        assert detect(ground, profile, np.random.default_rng(0), ["hall"]) == tuple(ground)


class TestComposePayloadStaging:
    def test_payload_staged_once_per_step(self):
        """Multi-round composes of one step reuse one sorted payload."""
        from repro.core.modules.communication import CommunicationModule
        from repro.core.seeding import rng_for
        from repro.llm.simulated import SimulatedLLM

        clock = SimClock()
        metrics = MetricsCollector(workload="test", horizon=10)
        context = ModuleContext(
            agent="a0",
            clock=clock,
            metrics=metrics,
            rng=np.random.default_rng(3),
            scheduler=percall_scheduler(clock, metrics),
            step=1,
        )
        comm = CommunicationModule(
            context, SimulatedLLM("gpt-4", rng=rng_for(0, "a0", "comm"))
        )
        known = list(_facts(1, 6))
        first = comm.compose(1, ("a1",), known, intent=None, dialogue=[])
        second = comm.compose(1, ("a1",), known, intent=None, dialogue=[])
        assert first is not None and second is not None
        assert first.facts is second.facts  # the staged tuple, reused
        context.step = 2
        third = comm.compose(2, ("a1",), known, intent=None, dialogue=[])
        assert third is not None
        assert third.facts == first.facts  # same values, fresh step
