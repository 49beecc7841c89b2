"""Unit coverage for the step-batched delivery pipeline (hot-path phase 3).

The episode-level byte-identity of the bus is asserted by the golden
equivalence suite; these tests pin the component contracts it rests on:
batched belief merges count novelty exactly like sequential updates,
staged memory writes commit to the same state as inline stores, read
paths refuse to serve uncommitted staging, the detector fast lanes leave
the rng stream bit-identical, and the sensing/position staging caches
invalidate when the world moves.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.beliefs import Beliefs
from repro.core.clock import SimClock
from repro.core.metrics import MetricsCollector
from repro.core.modules.base import ModuleContext
from repro.core.modules.memory import MemoryModule
from repro.core.settings import RunSettings, bind
from repro.core.types import Fact, Message, TaskSpec
from repro.envs.tasks import make_task
from repro.envs.transport import TransportEnv
from repro.perception.detector import detect
from repro.perception.models import get_perception

OPTIMIZED = RunSettings()
REFERENCE = RunSettings(hotpath=False)


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
        messages = [
            Message(sender="a1", recipients=("agent_0",), step=2, facts=_facts(2, 3)),
            Message(sender="a2", recipients=("agent_0",), step=2, facts=_facts(1, 2, "m")),
        ]
        with bind(OPTIMIZED):
            inline = _memory()
            for message in messages:
                inline.store_message(message)
            staged = _memory()
            for message in messages:
                staged.stage_message(message)
            staged.commit_staged_messages()
            assert staged.context.clock.spans == inline.context.clock.spans
            inline.context.set_step(3)
            staged.context.set_step(3)
            assert staged.retrieve(3) == inline.retrieve(3)
            assert staged.dialogue_window(3) == inline.dialogue_window(3)

    def test_reads_refuse_uncommitted_staging(self):
        with bind(OPTIMIZED):
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


class TestDetectorStreamIdentity:
    @pytest.mark.parametrize("profile_name", ["symbolic", "vit", "diffusion-world-model"])
    @pytest.mark.parametrize("distractors", [None, ["room_0", "room_1", "hall"]])
    def test_fast_lane_matches_reference(self, profile_name, distractors):
        """Same facts, same result, and — critically — same rng state after."""
        profile = get_perception(profile_name)
        ground = list(_facts(4, 12))
        with bind(REFERENCE):
            rng_ref = np.random.default_rng(123)
            reference = detect(ground, profile, rng_ref, distractor_values=distractors)
        with bind(OPTIMIZED):
            rng_fast = np.random.default_rng(123)
            fast = detect(ground, profile, rng_fast, distractor_values=distractors)
        assert fast == reference
        # The next draw of the episode's shared stream must be unaffected.
        assert rng_fast.random() == rng_ref.random()

    def test_perfect_detector_reports_frame_unchanged(self):
        profile = get_perception("symbolic")
        ground = list(_facts(7, 5))
        with bind(OPTIMIZED):
            result = detect(ground, profile, np.random.default_rng(0), ["hall"])
        assert result.facts == tuple(ground)
        assert result.missed == 0 and result.mislabeled == 0


def _transport_env(n_agents: int = 3) -> TransportEnv:
    task: TaskSpec = make_task("transport", difficulty="easy", n_agents=n_agents, seed=4)
    return TransportEnv(task, np.random.default_rng(4))


class TestPositionStaging:
    def test_cached_positions_match_reference(self):
        with bind(OPTIMIZED):
            fast_env = _transport_env()
        with bind(REFERENCE):
            ref_env = _transport_env()
        fast_env.tick()
        ref_env.tick()
        for agent in fast_env.agents:
            assert fast_env.position_of(agent) == ref_env.position_of(agent)
            # second read is served from the stage cache, same value
            assert fast_env.position_of(agent) == ref_env.agent_position(agent)

    def test_tick_and_execute_invalidate(self):
        with bind(OPTIMIZED):
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
        with bind(OPTIMIZED):
            fast_env = _transport_env()
        with bind(REFERENCE):
            ref_env = _transport_env()
        fast_env.tick()
        ref_env.tick()
        for agent in fast_env.agents:
            fast_obs = fast_env.observation(agent, _facts(1, 2))
            ref_obs = ref_env.observation(agent, _facts(1, 2))
            assert fast_obs.position == ref_obs.position
            assert fast_obs.visible_agents == ref_obs.visible_agents


class TestCoarseSweepDefault:
    """The sweep CLIs dispatch with the coarse clock unless told otherwise."""

    def test_defaults_to_coarse_when_unset(self, monkeypatch):
        from repro.experiments.common import sweep_settings

        monkeypatch.delenv("REPRO_CLOCK", raising=False)
        assert sweep_settings().run.clock == "coarse"
        assert "REPRO_CLOCK" not in os.environ  # nothing is exported

    def test_explicit_span_mode_wins(self, monkeypatch):
        from repro.experiments.common import sweep_settings

        monkeypatch.setenv("REPRO_CLOCK", "span")
        assert sweep_settings().run.clock == "full"


class TestComposePayloadStaging:
    def test_payload_staged_once_per_step(self):
        """Multi-round composes of one step reuse one sorted payload."""
        from repro.core.modules.communication import CommunicationModule
        from repro.core.seeding import rng_for
        from repro.llm.simulated import SimulatedLLM

        with bind(OPTIMIZED):
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
