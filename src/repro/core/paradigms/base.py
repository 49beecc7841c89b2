"""Episode scaffolding shared by all paradigm loops.

A paradigm loop owns the environment, the clock, the metrics collector,
and the per-agent module stacks; subclasses implement one macro step.
The scaffold handles ticking, horizon enforcement, and result finalizing,
so every paradigm measures success/steps/latency identically.
"""

from __future__ import annotations

import abc

from repro.core.agent import EmbodiedAgent, PerceptionBundle
from repro.core.bus import DeliveryBus
from repro.core.clock import ModuleName, SimClock
from repro.core.config import SystemConfig
from repro.core.metrics import EpisodeResult, MetricsCollector
from repro.core.seeding import derive_seed, rng_for
from repro.core.settings import RunSettings
from repro.core.types import Decision, Message, StepRecord, TaskSpec
from repro.envs import make_env
from repro.envs.base import ExecutionOutcome
from repro.llm.prompt import PromptBuilder
from repro.llm.requests import InferenceRequest
from repro.llm.scheduler import InferenceScheduler


class ParadigmLoop(abc.ABC):
    """Base class of the modular, centralized, decentralized and hybrid loops."""

    def __init__(
        self,
        config: SystemConfig,
        task: TaskSpec,
        seed: int,
        settings: RunSettings | None = None,
    ) -> None:
        self.config = config
        self.task = task
        self.seed = seed
        #: The episode's settings: the caller's (else the environment's)
        #: under this config's pin, read only while the loop builds.
        base = settings if settings is not None else RunSettings.from_env()
        self.settings = base.for_config(config)
        self._build()

    def _build(self) -> None:
        config, task, seed = self.config, self.task, self.seed
        self.clock = SimClock()
        self.metrics = MetricsCollector(workload=config.name, horizon=task.horizon)
        self.env = make_env(task, rng_for(seed, "env", task.env_name))
        #: The episode's serving layer, shared by every agent's module
        #: stack so phase-concurrent requests can meet in one place.
        self.scheduler = InferenceScheduler(self.clock, self.metrics, mode=self.settings.serve)
        #: Perception–generation overlap: sense step t+1 while the engine
        #: still generates for step t, per the async-pipeline
        #: decomposition (arXiv 2509.09560).  Latency-only and meaningful
        #: only when the serving mode defers charges to a flush (the
        #: anchor is the flush's charge start); per-call serving ignores
        #: the setting, keeping the golden path untouched.
        self._overlap = self.settings.overlap and self.scheduler.defers
        agent_seed = derive_seed(seed, "agents")
        self.agents: list[EmbodiedAgent] = [
            EmbodiedAgent(
                name=name,
                config=config,
                env=self.env,
                clock=self.clock,
                metrics=self.metrics,
                seed=agent_seed,
                scheduler=self.scheduler,
            )
            for name in self.env.agents
        ]
        self._agents_by_name = {agent.name: agent for agent in self.agents}
        #: Step-batched message delivery (:mod:`repro.core.bus`).
        self.bus = DeliveryBus(self.agents, self._agents_by_name, self.metrics)

    # ------------------------------------------------------------------ #
    # Episode driver
    # ------------------------------------------------------------------ #

    def run(self) -> EpisodeResult:
        steps = 0
        for step in range(1, self.task.horizon + 1):
            self.env.tick()
            self.step(step)
            # Step-boundary serving flush: whatever the step's phases
            # left pending is dispatched before the next step — and
            # before finalize.  ``final`` marks it as the step boundary,
            # the only flush the continuous engine dispatches at.
            self.scheduler.flush(final=True)
            steps = step
            if self.env.is_success():
                break
        return self.metrics.finalize(
            clock=self.clock,
            success=self.env.is_success(),
            steps=steps,
            goal_progress=self.env.goal_progress(),
        )

    @abc.abstractmethod
    def step(self, step: int) -> None:
        """Execute one macro step for all agents."""

    # ------------------------------------------------------------------ #
    # Shared step fragments
    # ------------------------------------------------------------------ #

    def perceive_all(self, step: int) -> dict[str, PerceptionBundle]:
        """Run every agent's perceive concurrently (per-robot compute).

        Under ``overlap`` (with a deferring serving mode), sensing
        for this step is backdated to where the previous step's flush
        started charging generation latency: perception for step t+1
        runs concurrently with generation for step t, and the clock
        resumes at whichever finishes later.  The first step has no
        generation to overlap with and senses normally.
        """
        bundles: dict[str, PerceptionBundle] = {}
        scope = (
            self.clock.overlapped(self.scheduler.overlap_anchor)
            if self._overlap and step > 1
            else self.clock.parallel()
        )
        with scope:
            for agent in self.agents:
                agent.begin_step(step)
                bundles[agent.name] = agent.perceive(self.env)
        return bundles

    def deliver_message(
        self, message: Message, bundles: dict[str, PerceptionBundle]
    ) -> None:
        """Deliver ``message`` to every recipient.

        The delivery is staged on the :class:`~repro.core.bus.DeliveryBus`
        and merged in batch at the phase's :meth:`flush_deliveries` point.
        """
        self.bus.stage(message, bundles)

    def flush_deliveries(self, bundles: dict[str, PerceptionBundle]) -> None:
        """Apply staged deliveries.

        Must run before anything reads delivery-derived beliefs or
        memory: the loops call it at the end of each dialogue/broadcast
        phase, ahead of planning and execution.
        """
        self.bus.flush(bundles)

    def flush_inference(self) -> None:
        """Dispatch the phase's pending inference requests.

        The loops call it at their phase boundaries — the end of a
        dialogue round, the end of the planning fan-out — which is what
        defines "phase-concurrent" for batched serving: requests still
        pending at the flush shared a phase and dispatch as occupancy-
        aware batches.  No-op under per-call serving, where nothing is
        ever pending — and under continuous serving, whose engine only
        dispatches at the step-boundary flush so the whole step's
        requests meet in one arrival-ordered queue.
        """
        self.scheduler.flush()

    def execute_and_reflect(
        self,
        step: int,
        agent: EmbodiedAgent,
        bundle: PerceptionBundle,
        decision: Decision,
        allow_replan: bool = True,
    ) -> ExecutionOutcome:
        """Act, record, reflect, and optionally replan-once within the step."""
        outcome = agent.act(self.env, decision)
        record = StepRecord(
            step=step,
            agent=agent.name,
            subgoal=decision.subgoal,
            fault=decision.fault,
            primitive_count=outcome.primitive_count,
            execution_success=outcome.success,
            prompt_tokens=decision.prompt_tokens,
            output_tokens=decision.output_tokens,
        )
        report = agent.reflect(self.env, decision, outcome)
        agent.state.note_outcome(
            decision,
            wasted=self.is_wasteful(decision, outcome),
            corrected=report is not None and report.judged_failure,
        )
        if report is not None and report.judged_failure:
            record.reflected = True
            if allow_replan and report.should_replan:
                record.replanned = True
                self.metrics.replans += 1
                bundle.beliefs.forget(report.forget_subject, report.forget_relation)
                # The retry depends on this reflection's verdict: it must
                # not share a serving batch with the calls it follows.
                self.flush_inference()
                retry = agent.plan(
                    self.env,
                    bundle,
                    extra_blacklist=frozenset({decision.subgoal}),
                )
                retry_outcome = agent.act(self.env, retry)
                self.metrics.record_step(record)
                self.metrics.record_step(
                    StepRecord(
                        step=step,
                        agent=agent.name,
                        subgoal=retry.subgoal,
                        fault=retry.fault,
                        primitive_count=retry_outcome.primitive_count,
                        execution_success=retry_outcome.success,
                        prompt_tokens=retry.prompt_tokens,
                        output_tokens=retry.output_tokens,
                    )
                )
                return retry_outcome
        self.metrics.record_step(record)
        return outcome

    def action_selection_call(self, step: int, agent: EmbodiedAgent, decision: Decision) -> None:
        """CoELA's extra LLM pass selecting the low-level action of a plan."""
        prompt = (
            PromptBuilder()
            .extra(
                "instruction",
                "Select the concrete low level action realizing "
                f"{decision.subgoal.describe()} from the valid action list.",
            )
            .build()
        )
        self.scheduler.submit(
            agent.planner_llm,
            InferenceRequest(
                kind="generation",
                purpose="action_selection",
                prompt=prompt,
                module=ModuleName.PLANNING,
                phase="action_selection",
                agent=agent.name,
                step=step,
            ),
        )

    @staticmethod
    def is_wasteful(decision: Decision, outcome: ExecutionOutcome) -> bool:
        """A step that consumed time without advancing the task."""
        if not outcome.success:
            return True
        return decision.fault is not None and outcome.progress_delta <= 0.0
