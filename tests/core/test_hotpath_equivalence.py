"""Fast paths agree with the paths the input can still choose.

Episode results are pinned by the committed goldens
(tests/core/test_goldens.py).  This module checks the fast paths those
goldens run through: the delivery bus and the inference scheduler
really engage, batched serving moves only latency, indexed memory
retrieval equals a full scan of every store (``linear_retrieve`` in
``tests/conftest.py``), and prompt token arithmetic equals plain tokenization of the rendered
text.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from conftest import commit_alone, linear_retrieve, percall_scheduler

from repro.core.clock import SimClock
from repro.core.metrics import MetricsCollector
from repro.core.modules.base import ModuleContext
from repro.core.modules.memory import MemoryModule
from repro.core.runner import build_loop, build_task
from repro.core.types import Fact, Message, Subgoal
from repro.experiments.common import ExperimentSettings, GridCell, measure_grid
from repro.llm.prompt import PromptBuilder
from repro.llm.tokenizer import count_tokens
from repro.workloads.registry import get_workload


JARVIS = get_workload("jarvis-1").config

#: Config x paradigm x capacity grid: modular single-agent (small and
#: large windows, dual), centralized, decentralized with dialogue, the
#: combined-optimizations system, and a hierarchy workload.  The final
#: cell is the delivery-bus stressor: a decentralized team large enough
#: for multi-round dialogue, so every step staged many (message,
#: receiver) deliveries with multiple receivers per message.
GRID = [
    GridCell(config=JARVIS.with_memory(capacity_steps=2)),
    GridCell(config=JARVIS.with_memory(capacity_steps=90), difficulty="hard"),
    GridCell(config=JARVIS.with_memory(capacity_steps=30, dual=True)),
    GridCell(config=get_workload("mindagent").config, n_agents=4),
    GridCell(config=get_workload("coela").config, n_agents=4),
    GridCell(config=get_workload("combo").config, n_agents=4),
    GridCell(config=get_workload("hmas").config, n_agents=4, difficulty="easy"),
    GridCell(config=get_workload("coela").config, n_agents=6),
]

SETTINGS = ExperimentSettings(n_trials=2, executor="serial", max_workers=1)


def _loop(cell: GridCell):
    task = build_task(cell.config, n_agents=cell.n_agents, seed=0)
    return build_loop(cell.config, task, seed=0)



class TestGridEquivalence:
    def test_delivery_bus_actually_engages(self):
        """Guard against the bus silently not staging anything."""
        loop = _loop(GRID[-1])
        deliveries = []
        stage = loop.bus.stage

        def counting_stage(message, bundles):
            deliveries.append(len(message.recipients))
            stage(message, bundles)

        loop.bus.stage = counting_stage
        loop.run()
        assert loop.bus.pending == 0  # every stage was flushed
        # Multi-receiver staging: strictly more deliveries than messages.
        assert sum(deliveries) > loop.metrics.messages_sent > 0

    def test_inference_scheduler_actually_engages(self):
        """Guard against call sites silently bypassing the serving layer.

        Every LLM call must route through the loop's scheduler: its
        submits equal the episode's recorded call count (nothing records
        a token sample without a submit).
        """
        loop = _loop(GRID[4])  # coela: plans + composes + reflections + selections
        submits = []
        submit = loop.scheduler.submit

        def counting_submit(llm, request):
            submits.append(request)
            return submit(llm, request)

        loop.scheduler.submit = counting_submit
        result = loop.run()
        assert loop.scheduler.mode == "percall"
        assert loop.scheduler.pending == 0
        assert len(submits) == result.llm_calls > 0

    def test_batched_serving_changes_latency_never_outcomes(self):
        """Batched serving across the golden grid: task outcomes, token
        counts, and message metrics are invariant; modeled latency drops
        wherever a paradigm exposes phase concurrency."""
        percall = measure_grid(GRID, SETTINGS)
        batched = [
            replace(cell, config=cell.config.with_optimizations(serve_mode="batched"))
            for cell in GRID
        ]
        batched = measure_grid(batched, SETTINGS)
        saw_speedup = False
        for reference, served in zip(percall, batched):
            assert served.success_rate == reference.success_rate
            assert served.mean_steps == reference.mean_steps
            assert served.mean_llm_calls == reference.mean_llm_calls
            assert served.mean_prompt_tokens == reference.mean_prompt_tokens
            assert served.mean_messages_sent == reference.mean_messages_sent
            assert served.message_usefulness == reference.message_usefulness
            assert served.mean_goal_progress == reference.mean_goal_progress
            # Latency may only move down; all-singleton cells agree to
            # rounding (deferred charges accumulate in flush order, so
            # the float summation order differs in the last ulp).
            assert (
                served.mean_sim_minutes < reference.mean_sim_minutes
                or served.mean_sim_minutes
                == pytest.approx(reference.mean_sim_minutes, rel=1e-9)
            )
            assert served.mean_batch_occupancy >= 1.0
            if served.mean_sim_minutes < reference.mean_sim_minutes * (1 - 1e-9):
                saw_speedup = True
                assert served.mean_batch_occupancy > 1.0
        # The grid's dialogue-heavy decentralized cells must benefit.
        assert saw_speedup


def _facts(step: int, n: int, salt: str = "") -> tuple[Fact, ...]:
    return tuple(
        Fact(f"obj_{salt}{i}", "located_in", f"room_{(step + i) % 5}", step=step)
        for i in range(n)
    )


def _drive(module: MemoryModule, steps: int) -> list:
    """Feed a deterministic store/retrieve/forget schedule; return retrievals."""
    out = []
    for step in range(1, steps + 1):
        module.context.step = step
        module.store_observation(_facts(step, 4))
        if step % 3 == 0:
            # Message facts carry older provenance: out-of-order steps.
            message = Message(
                sender="peer",
                recipients=("agent_0",),
                step=step,
                facts=_facts(max(0, step - 7), 2, salt="m"),
            )
            module.charge_store("store_dialogue")
            commit_alone(module, [message])
        module.store_action(step, Subgoal("fetch", target=f"obj_{step % 6}"), step % 2 == 0)
        if step % 11 == 0:
            module.forget(f"obj_{step % 4}", "located_in")
        retrieved = module.retrieve(step)
        out.append(
            (
                retrieved.facts,
                retrieved.action_records,
                retrieved.dialogue,
                retrieved.scanned_entries,
                retrieved.confused,
            )
        )
    return out


def _module(capacity: int, dual: bool, seed: int, linear: bool = False) -> MemoryModule:
    """A memory module; ``linear`` pins it to the full-scan reference."""
    clock = SimClock()
    metrics = MetricsCollector(workload="test", horizon=200)
    context = ModuleContext(
        agent="agent_0",
        clock=clock,
        metrics=metrics,
        rng=np.random.default_rng(seed),
        scheduler=percall_scheduler(clock, metrics),
        step=1,
    )
    static = [Fact(f"wall_{i}", "located_in", "hall", step=0) for i in range(3)]
    module = MemoryModule(context, capacity_steps=capacity, static_facts=static, dual=dual)
    if linear:
        module.retrieve = partial(linear_retrieve, module)
    return module


class TestMemoryRetrievalEquivalence:
    @pytest.mark.parametrize("capacity", [3, 10, 60])
    @pytest.mark.parametrize("dual", [False, True])
    def test_indexed_matches_linear(self, capacity, dual):
        """Same stores, same rng -> identical retrievals, step by step.

        capacity=60 over 70 steps crosses the confusion onset (window
        > 40 steps), exercising the confused-retrieval fallback with the
        shared rng draw order.
        """
        linear = _module(capacity, dual, seed=7, linear=True)
        reference = _drive(linear, steps=70)
        indexed = _module(capacity, dual, seed=7)
        optimized = _drive(indexed, steps=70)
        assert optimized == reference
        # Modeled retrieval latency (Fig. 5) must be untouched too.
        assert indexed.context.clock.now == linear.context.clock.now
        assert indexed.context.clock.elapsed_by_phase() == (
            linear.context.clock.elapsed_by_phase()
        )

    def test_confusion_draws_occurred(self):
        """The capacity=60 schedule actually hits confused retrievals."""
        module = _module(60, dual=False, seed=7)
        retrievals = _drive(module, steps=70)
        assert any(confused for *_rest, confused in retrievals)

    def test_beliefs_equivalent(self):
        linear = _module(10, False, seed=3, linear=True)
        _drive(linear, steps=30)
        reference = linear.beliefs(_facts(30, 4), "room_0", linear.retrieve(30))
        indexed = _module(10, False, seed=3)
        _drive(indexed, steps=30)
        optimized = indexed.beliefs(_facts(30, 4), "room_0", indexed.retrieve(30))
        assert list(optimized) == list(reference)

    def test_dialogue_window_equivalent(self):
        linear = _module(5, False, seed=5, linear=True)
        _drive(linear, steps=25)
        indexed = _module(5, False, seed=5)
        _drive(indexed, steps=25)
        assert indexed.retrieve(25).dialogue == linear.retrieve(25).dialogue


class TestPromptEquivalence:
    def test_builder_sections_identical(self):
        """Token arithmetic equals plain tokenization of the rendered
        text, and tuple inputs build what list inputs build."""
        from repro.core.types import Candidate, Observation

        observation = Observation(
            agent="a0",
            step=4,
            position="kitchen",
            facts=_facts(4, 3),
        )
        memory_facts = _facts(2, 5)
        messages = [
            Message(sender=f"a{i}", recipients=("a0",), step=i, facts=_facts(i, 2))
            for i in range(14)
        ]
        candidates = tuple(
            Candidate(subgoal=Subgoal("fetch", target=f"obj_{i}"), utility=1.0)
            for i in range(12)
        )

        def build(sequence):
            return (
                PromptBuilder(system_text="be a planner", task_text="tidy the house")
                .observation(observation)
                .memory(sequence(memory_facts))
                .dialogue(sequence(messages))
                .candidates(sequence(candidates))
                .build()
            )

        listed = build(list)
        cached = build(tuple)
        assert cached.sections == listed.sections
        assert cached.render() == listed.render()
        for section in listed.sections:
            assert section.tokens == count_tokens(section.text), section.name
        assert listed.tokens == sum(count_tokens(s.text) for s in listed.sections)
