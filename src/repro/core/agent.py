"""Embodied agent assembly: wiring modules per the system configuration.

An :class:`EmbodiedAgent` owns one instance of each configured building
block plus the episode-transient state (fault blacklist, plan queue,
per-step dialogue when memory is absent).  Paradigm loops drive agents
through the shared pipeline helpers here, so ablations (module = None)
behave identically across paradigms.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.beliefs import Beliefs
from repro.core.clock import SimClock
from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.core.metrics import MetricsCollector
from repro.core.modules import (
    CommunicationModule,
    ExecutionModule,
    MemoryModule,
    ModuleContext,
    PlanningModule,
    ReflectionModule,
    SensingModule,
)
from repro.core.modules.memory import ActionRecord, RetrievedMemory
from repro.core.seeding import rng_for
from repro.core.types import Decision, Fact, Message, Observation, Subgoal
from repro.envs.base import Environment, ExecutionOutcome
from repro.llm.deployment import DeploymentOptions
from repro.llm.profiles import get_profile
from repro.llm.scheduler import InferenceScheduler
from repro.llm.simulated import SimulatedLLM

#: How many recently-failed subgoals the agent avoids re-issuing, and for
#: how many macro steps.  The TTL matters: a subgoal that failed because
#: its preconditions were not met yet ("craft X: missing ingredients")
#: must become eligible again once the world has moved on.
BLACKLIST_SIZE = 10
BLACKLIST_TTL_STEPS = 4

#: Self-conditioning: an LLM whose faulty step went *uncorrected* tends to
#: re-issue the same decision (its bad rationale persists in context) —
#: the paper's "stuck in loops of invalid operations" failure mode that
#: the reflection module exists to break.  Each subsequent plan repeats
#: the uncorrected fault with this probability, up to the cap.
FAULT_REPEAT_BIAS = 0.8
FAULT_REPEAT_CAP = 4


def deployment_for(model: str, config: SystemConfig) -> DeploymentOptions:
    """Serving options for ``model`` under the system's optimizations.

    Quantization/runtime options only apply to locally-served models; an
    API model silently ignores them (you cannot AWQ-quantize GPT-4).
    """
    profile = get_profile(model)
    optimizations = config.optimizations
    if profile.deployment != "local":
        return DeploymentOptions()
    return DeploymentOptions(
        quantization=optimizations.quantization,
        runtime=optimizations.runtime,
    )


@dataclass
class PerceptionBundle:
    """Everything one perceive() pass produces for downstream modules."""

    observation: Observation | None
    current_facts: tuple[Fact, ...]
    beliefs: Beliefs
    memory_facts: list[Fact]
    action_records: list[ActionRecord]
    dialogue: list[Message]
    retrieved: RetrievedMemory | None = None


@dataclass
class AgentState:
    """Episode-transient per-agent state."""

    blacklist: deque = field(default_factory=lambda: deque(maxlen=BLACKLIST_SIZE))
    plan_queue: list[Decision] = field(default_factory=list)
    step_dialogue: list[Message] = field(default_factory=list)
    last_intent: Subgoal | None = None
    uncorrected_fault: Subgoal | None = None
    fault_repeats: int = 0

    def add_blacklist(self, subgoal: Subgoal, step: int) -> None:
        self.blacklist.append((subgoal, step))

    def blacklisted(self, step: int) -> frozenset[Subgoal]:
        """Subgoals still within their avoid window at ``step``."""
        return frozenset(
            subgoal
            for subgoal, added in self.blacklist
            if step - added <= BLACKLIST_TTL_STEPS
        )

    # ------------------------------------------------------------------ #
    # Fault self-conditioning (loops the reflection module breaks)
    # ------------------------------------------------------------------ #

    def maybe_repeat_fault(self, decision: Decision, rng) -> Decision:
        """Possibly override a fresh decision with the uncorrected fault."""
        if (
            self.uncorrected_fault is None
            or self.fault_repeats >= FAULT_REPEAT_CAP
            or rng.random() >= FAULT_REPEAT_BIAS
        ):
            return decision
        from dataclasses import replace as dc_replace

        from repro.core.errors import FaultKind

        return dc_replace(
            decision, subgoal=self.uncorrected_fault, fault=FaultKind.REPEATED
        )

    def note_outcome(self, decision: Decision, wasted: bool, corrected: bool) -> None:
        """Update the self-conditioning state after execution/reflection.

        A faulty step that went undetected primes repetition; a corrected
        or clean step clears it.
        """
        if corrected or not wasted or decision.fault is None:
            self.uncorrected_fault = None
            self.fault_repeats = 0
            return
        if decision.subgoal == self.uncorrected_fault:
            self.fault_repeats += 1
        else:
            self.uncorrected_fault = decision.subgoal
            self.fault_repeats = 1


class EmbodiedAgent:
    """One embodied agent assembled from a :class:`SystemConfig`."""

    def __init__(
        self,
        name: str,
        config: SystemConfig,
        env: Environment,
        clock: SimClock,
        metrics: MetricsCollector,
        seed: int,
        scheduler: InferenceScheduler | None = None,
    ) -> None:
        self.name = name
        self.config = config
        self.state = AgentState()
        self._static_facts = env.static_facts() if hasattr(env, "static_facts") else []
        # Static facts never change within an episode, so the memoryless
        # perceive() branch copies this prebuilt belief base instead of
        # re-inserting every static fact each step.
        self._static_beliefs = Beliefs.from_facts(self._static_facts)
        # The paradigm loop passes its episode-wide scheduler so requests
        # from different agents can meet in one serving layer; a
        # standalone agent gets a private per-call one via ModuleContext.
        self.context = ModuleContext(
            agent=name,
            clock=clock,
            metrics=metrics,
            rng=rng_for(seed, name, "modules"),
            scheduler=scheduler,
        )

        self.planner_llm = SimulatedLLM(
            config.planning_model,
            rng=rng_for(seed, name, "planner"),
            deployment=deployment_for(config.planning_model, config),
        )
        self.planner = PlanningModule(
            context=self.context,
            llm=self.planner_llm,
            task_text=env.describe_task(),
            difficulty=env.task.difficulty,
        )
        self.sensing = SensingModule(self.context, config.sensing_model)
        self.memory: MemoryModule | None = None
        if config.memory is not None:
            self.memory = MemoryModule(
                context=self.context,
                capacity_steps=config.memory.capacity_steps,
                static_facts=self._static_facts,
                dual=config.memory.dual,
            )
        self.comm: CommunicationModule | None = None
        if config.communication_model is not None:
            comm_llm = SimulatedLLM(
                config.communication_model,
                rng=rng_for(seed, name, "comm"),
                deployment=deployment_for(config.communication_model, config),
            )
            self.comm = CommunicationModule(
                self.context, comm_llm, filter_redundant=config.optimizations.comm_filter
            )
        self.reflection: ReflectionModule | None = None
        if config.reflection_model is not None:
            reflection_llm = SimulatedLLM(
                config.reflection_model,
                rng=rng_for(seed, name, "reflection"),
                deployment=deployment_for(config.reflection_model, config),
            )
            self.reflection = ReflectionModule(self.context, reflection_llm)
        self.executor = ExecutionModule(
            self.context,
            enabled=config.execution_enabled,
            fallback_llm=self.planner_llm,
        )

    # ------------------------------------------------------------------ #
    # Per-step pipeline
    # ------------------------------------------------------------------ #

    def begin_step(self, step: int) -> None:
        self.context.set_step(step)
        self.state.step_dialogue.clear()

    def perceive(self, env: Environment) -> PerceptionBundle:
        """Sense, store, retrieve, and assemble beliefs for this step."""
        facts = self.sensing.sense(env)
        position = env.position_of(self.name)
        observation = env.observation(self.name, facts)
        if self.memory is not None:
            self.memory.store_observation(facts)
            retrieved = self.memory.retrieve(self.context.step)
            beliefs = self.memory.beliefs(self.context.step, facts, position, retrieved)
            return PerceptionBundle(
                observation=observation,
                current_facts=facts,
                beliefs=beliefs,
                memory_facts=retrieved.facts,
                action_records=retrieved.action_records,
                dialogue=retrieved.dialogue,
                retrieved=retrieved,
            )
        # Freshly sensed facts carry this step's provenance and so always
        # win their slots against the static base.
        beliefs = self._static_beliefs.copy()
        beliefs.overwrite(facts)
        return PerceptionBundle(
            observation=observation,
            current_facts=facts,
            beliefs=beliefs,
            memory_facts=[],
            action_records=[],
            dialogue=list(self.state.step_dialogue),
        )

    def stage_message(self, message: Message, bundle: PerceptionBundle) -> None:
        """Receive one message (:mod:`repro.core.bus` stages it here).

        Makes the message visible to this step's later prompts (the
        dialogue lists) and charges the modeled store latency at delivery
        time, while the belief merge and the memory-index writes wait for
        the step's batched flush.
        """
        bundle.dialogue.append(message)
        if self.memory is not None:
            self.memory.stage_message(message)
        else:
            self.state.step_dialogue.append(message)

    def plan(
        self,
        env: Environment,
        bundle: PerceptionBundle,
        n_joint: int = 1,
        extra_blacklist: frozenset[Subgoal] = frozenset(),
    ) -> Decision:
        """One planning decision (serving the plan queue when multi-step)."""
        if self.state.plan_queue:
            return self.state.plan_queue.pop(0)
        candidates = env.candidates(self.name, bundle.beliefs)
        if not candidates:
            raise ConfigurationError(
                f"environment {env.name!r} offered no candidates to {self.name}"
            )
        prompt = self.planner.build_prompt(
            observation=bundle.observation,
            memory_facts=bundle.memory_facts,
            action_records=bundle.action_records,
            dialogue=bundle.dialogue,
            candidates=candidates,
        )
        blacklist = self.state.blacklisted(self.context.step) | extra_blacklist
        horizon = self.config.optimizations.multistep_horizon
        if horizon > 1:
            decisions = self.planner.decide_multi(
                candidates, prompt, horizon=horizon, blacklist=blacklist
            )
            self.state.plan_queue = decisions[1:]
            decision = decisions[0]
        else:
            decision = self.planner.decide(
                candidates, prompt, blacklist=blacklist, n_joint=n_joint
            )
        repeated = self.state.maybe_repeat_fault(decision, self.context.rng)
        if repeated is not decision:
            self.context.metrics.record_fault(repeated.fault)
            decision = repeated
        self.state.last_intent = decision.subgoal
        return decision

    def act(self, env: Environment, decision: Decision) -> ExecutionOutcome:
        outcome = self.executor.execute(env, decision.subgoal)
        if self.memory is not None:
            self.memory.store_action(self.context.step, decision.subgoal, outcome.success)
        return outcome

    def reflect(
        self, env: Environment, decision: Decision, outcome: ExecutionOutcome
    ):
        """Reflection pass; applies repairs.  Returns the report or None."""
        if self.reflection is None:
            return None
        report = self.reflection.review(self.context.step, decision, outcome)
        if report.judged_failure:
            self.state.add_blacklist(decision.subgoal, self.context.step)
            self.state.plan_queue.clear()  # a stale multi-step plan is void
            if self.memory is not None and report.forget_subject:
                self.memory.forget(report.forget_subject, report.forget_relation)
        return report

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def static_facts(self) -> list[Fact]:
        return list(self._static_facts)
