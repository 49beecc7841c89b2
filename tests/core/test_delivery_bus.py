"""Unit coverage for the step-batched delivery pipeline.

The episode-level behaviour of the bus is pinned by the committed
goldens (tests/core/test_goldens.py); these tests pin the component
contracts it rests on: batched belief merges count novelty exactly like
sequential updates, one batched commit leaves the same state as
per-message commits, read paths refuse to serve uncommitted staging, the
detector leaves the rng stream where the seed detector left it, and the
sensing/position staging caches invalidate when the world moves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.beliefs import Beliefs
from repro.core.clock import SimClock
from repro.core.metrics import MetricsCollector
from repro.core.modules.base import ModuleContext
from repro.core.modules.memory import MemoryModule
from repro.core.types import Fact, Message, TaskSpec
from repro.envs.tasks import make_task
from repro.envs.transport import TransportEnv
from repro.perception.detector import detect
from repro.perception.models import get_perception


def _facts(step: int, n: int, salt: str = "") -> tuple[Fact, ...]:
    return tuple(
        Fact(f"obj_{salt}{i}", "located_in", f"room_{(step + i) % 4}", step=step)
        for i in range(n)
    )


class TestUpdateBatch:
    def test_matches_sequential_updates(self):
        """Chunked merging counts novelty exactly like per-chunk update()."""
        chunks = [
            _facts(3, 4),
            _facts(2, 3, salt="x"),
            _facts(3, 4),  # repeat: nothing novel the second time
            _facts(5, 2),  # fresher provenance over the same slots
            (),
        ]
        sequential = Beliefs()
        expected = [sequential.update(chunk) for chunk in chunks]
        batched = Beliefs()
        counts = batched.update_batch(chunks)
        assert counts == expected
        assert batched.facts() == sequential.facts()

    def test_stale_chunk_never_overwrites(self):
        beliefs = Beliefs()
        beliefs.update(_facts(9, 2))
        counts = beliefs.update_batch([_facts(1, 2)])
        assert counts == [0]
        assert all(fact.step == 9 for fact in beliefs.facts())


def _memory(capacity: int = 20) -> MemoryModule:
    context = ModuleContext(
        agent="agent_0",
        clock=SimClock(),
        metrics=MetricsCollector(workload="test", horizon=50),
        rng=np.random.default_rng(11),
    )
    context.set_step(1)
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
            inline.stage_message(message)
            inline.commit_staged_messages()
        staged = _memory()
        for message in messages:
            staged.stage_message(message)
        staged.commit_staged_messages()
        assert staged.context.clock.elapsed_by_phase() == (
            inline.context.clock.elapsed_by_phase()
        )
        inline.context.set_step(3)
        staged.context.set_step(3)
        assert staged.retrieve(3) == inline.retrieve(3)
        assert staged.dialogue_window(3) == inline.dialogue_window(3)

    def test_reads_refuse_uncommitted_staging(self):
        memory = _memory()
        memory.stage_message(
            Message(sender="a1", recipients=("agent_0",), step=1, facts=_facts(1, 1))
        )
        with pytest.raises(RuntimeError, match="staged"):
            memory.retrieve(1)
        with pytest.raises(RuntimeError, match="staged"):
            memory.dialogue_window(1)
        memory.commit_staged_messages()
        assert memory.retrieve(1).dialogue  # served again after commit


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
        result = detect(ground, profile, rng, distractor_values=distractors)
        assert result.facts == tuple(ground)
        assert result.missed == 0 and result.mislabeled == 0
        assert result.latency == profile.latency_s
        # The next draw of the episode's shared stream must be unaffected.
        assert rng.random() == SEED_NEXT_DRAW[distractors is not None]

    def test_perfect_detector_reports_frame_unchanged(self):
        profile = get_perception("symbolic")
        ground = list(_facts(7, 5))
        result = detect(ground, profile, np.random.default_rng(0), ["hall"])
        assert result.facts == tuple(ground)
        assert result.missed == 0 and result.mislabeled == 0


def _transport_env(n_agents: int = 3) -> TransportEnv:
    task: TaskSpec = make_task("transport", difficulty="easy", n_agents=n_agents, seed=4)
    return TransportEnv(task, np.random.default_rng(4))


class TestPositionStaging:
    def test_cached_positions_match_reference(self):
        """Staged positions equal the environment's direct reads."""
        env = _transport_env()
        env.tick()
        for agent in env.agents:
            assert env.position_of(agent) == env.agent_position(agent)
            # second read is served from the stage cache, same value
            assert env.position_of(agent) == env.agent_position(agent)

    def test_tick_and_execute_invalidate(self):
        env = _transport_env()
        env.tick()
        agent = env.agents[0]
        before = env.position_of(agent)
        assert env._position_cache  # staged
        env.tick()
        assert not env._position_cache  # cleared per step
        env.position_of(agent)
        env.invalidate_positions()
        assert not env._position_cache
        # a manual world mutation after invalidation is observed
        env._agents[agent].cell = (0, 0)
        assert env.position_of(agent) == env.agent_position(agent)
        del before

    def test_observation_uses_staged_positions(self):
        """Observations see the positions direct reads would give."""
        env = _transport_env()
        env.tick()
        for agent in env.agents:
            observation = env.observation(agent, _facts(1, 2))
            position = env.agent_position(agent)
            assert observation.position == position
            assert observation.visible_agents == tuple(
                other
                for other in env.agents
                if other != agent and env.agent_position(other) == position
            )


class TestComposePayloadStaging:
    def test_payload_staged_once_per_step(self):
        """Multi-round composes of one step reuse one sorted payload."""
        from repro.core.modules.communication import CommunicationModule
        from repro.core.seeding import rng_for
        from repro.llm.simulated import SimulatedLLM

        context = ModuleContext(
            agent="a0",
            clock=SimClock(),
            metrics=MetricsCollector(workload="test", horizon=10),
            rng=np.random.default_rng(3),
        )
        context.set_step(1)
        comm = CommunicationModule(
            context, SimulatedLLM("gpt-4", rng=rng_for(0, "a0", "comm"))
        )
        known = list(_facts(1, 6))
        first = comm.compose(1, ("a1",), known, intent=None, dialogue=[])
        second = comm.compose(1, ("a1",), known, intent=None, dialogue=[])
        assert first is not None and second is not None
        assert first.facts is second.facts  # the staged tuple, reused
        context.set_step(2)
        third = comm.compose(2, ("a1",), known, intent=None, dialogue=[])
        assert third is not None
        assert third.facts == first.facts  # same values, fresh step
