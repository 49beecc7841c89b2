"""Episode scaffolding shared by all paradigm loops.

A paradigm loop owns the environment, the clock, the metrics collector,
and the per-agent module stacks; subclasses implement one macro step.
The scaffold handles ticking, horizon enforcement, and result finalizing,
so every paradigm measures success/steps/latency identically.  The
team loops (centralized, hybrid, hierarchical) share one joint planner:
:meth:`~ParadigmLoop.joint_call`, :meth:`~ParadigmLoop.joint_decisions`
and :meth:`~ParadigmLoop.execute_team`.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

from repro.core.agent import EmbodiedAgent, PerceptionBundle
from repro.core.bus import DeliveryBus
from repro.core.clock import ModuleName, SimClock
from repro.core.config import SystemConfig
from repro.core.metrics import EpisodeResult, MetricsCollector
from repro.core.modules.reflection import is_wasteful
from repro.core.seeding import derive_seed, rng_for
from repro.core.types import Candidate, Decision, Fact, StepRecord, TaskSpec
from repro.envs import make_env
from repro.envs.base import ExecutionOutcome
from repro.llm.behavior import DecisionRequest
from repro.llm.prompt import Prompt, PromptBuilder
from repro.llm.requests import InferenceRequest
from repro.llm.scheduler import InferenceScheduler
from repro.llm.simulated import OUTPUT_TOKENS

#: Output tokens a joint plan spends per additional agent.
JOINT_PLAN_TOKENS_PER_AGENT = 45


class ParadigmLoop(abc.ABC):
    """Base class of every paradigm loop."""

    def __init__(self, config: SystemConfig, task: TaskSpec, seed: int) -> None:
        self.config = config
        self.task = task
        self.seed = seed
        self._build()

    def _build(self) -> None:
        config, task, seed = self.config, self.task, self.seed
        self.clock = SimClock()
        self.metrics = MetricsCollector(workload=config.name, horizon=task.horizon)
        self.env = make_env(task, rng_for(seed, "env", task.env_name))
        #: The episode's serving layer, shared by every agent's module
        #: stack so phase-concurrent requests can meet in one place.
        self.scheduler = InferenceScheduler(
            self.clock, self.metrics, mode=config.optimizations.serve_mode
        )
        #: Perception–generation overlap: sense step t+1 while the engine
        #: still generates for step t, per the async-pipeline
        #: decomposition (arXiv 2509.09560).  Latency-only; the config
        #: allows it only under a serving mode that charges generation at
        #: a flush (the anchor is the flush's charge start).
        self._overlap = config.optimizations.overlap
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
        #: Step-batched message delivery (:mod:`repro.core.bus`): the
        #: team loops stage on it and flush it at their phase ends.
        self.bus = DeliveryBus(self.agents, self.metrics)

    # ------------------------------------------------------------------ #
    # Episode driver
    # ------------------------------------------------------------------ #

    def run(self) -> EpisodeResult:
        steps = 0
        for step in range(1, self.task.horizon + 1):
            self.env.tick()
            self.step(step)
            if self.bus.pending:
                raise RuntimeError(
                    f"step {step} ended with {self.bus.pending} staged message(s) "
                    "unflushed (DeliveryBus.flush was not called)"
                )
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

        Under ``optimizations.overlap`` (batched or continuous serving),
        sensing for this step is backdated to where the previous step's
        flush started charging generation latency: perception for step
        t+1 runs concurrently with generation for step t, and the clock
        resumes at whichever finishes later.  The first step has no
        generation to overlap with and senses normally.
        """
        start = self.scheduler.overlap_anchor if self._overlap and step > 1 else None
        with self.clock.concurrent(start):
            return {agent.name: agent.perceive(self.env, step) for agent in self.agents}

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
        reviewer: EmbodiedAgent | None = None,
    ) -> ExecutionOutcome:
        """Act, record, and have ``reviewer`` (else ``agent`` itself)
        reflect on the outcome, applying its repairs; an agent that
        reviews itself replans once within the step when reflection asks."""
        outcome = agent.act(self.env, decision)
        record = _step_record(step, agent, decision, outcome)
        reviewer = agent if reviewer is None else reviewer
        report = reviewer.reflect(self.env, decision, outcome)
        agent.state.note_outcome(
            decision,
            wasted=is_wasteful(decision, outcome),
            corrected=report is not None and report.judged_failure,
        )
        if report is not None and report.judged_failure:
            record.reflected = True
            if reviewer is agent and report.should_replan:
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
                self.metrics.record_step(_step_record(step, agent, retry, retry_outcome))
                return retry_outcome
        self.metrics.record_step(record)
        return outcome

    def speak(
        self,
        step: int,
        agent: EmbodiedAgent,
        recipients: tuple[str, ...],
        known_facts: list[Fact],
        bundles: dict[str, PerceptionBundle],
        force_filter: bool = False,
    ) -> bool:
        """Compose ``agent``'s message about its current intent, against
        its own dialogue, and stage it on the bus; False when the
        communication module filtered it.  ``agent`` must have one."""
        message = agent.comm.compose(
            step=step,
            recipients=recipients,
            known_facts=known_facts,
            intent=agent.state.last_intent,
            dialogue=bundles[agent.name].dialogue,
            force_filter=force_filter,
        )
        if message is None:
            return False
        self.bus.stage(message, bundles)
        return True

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

    # ------------------------------------------------------------------ #
    # Joint planning (centralized, hybrid and hierarchical teams)
    # ------------------------------------------------------------------ #

    def joint_call(
        self,
        step: int,
        lead: EmbodiedAgent,
        bundle: PerceptionBundle,
        candidates_by_agent: dict[str, Sequence[Candidate]],
        system_text: str,
        phase: str,
        memory_facts: Sequence[Fact],
    ) -> Prompt:
        """Submit one call on ``lead``'s planner that plans for every agent
        of ``candidates_by_agent`` (the caller's: a refined call reuses the
        ones its priming call saw); prompt and output grow with the team."""
        builder = PromptBuilder(system_text=system_text, task_text=lead.planner.task_text)
        builder.observation(bundle.observation)
        builder.memory(memory_facts)
        builder.dialogue(bundle.dialogue)
        for name, candidates in candidates_by_agent.items():
            builder.candidates(candidates)
            builder.extra("agent_header", f"Options above are for {name}.")
        prompt = builder.build()
        extra_agents = len(candidates_by_agent) - 1
        self.scheduler.submit(
            lead.planner_llm,
            InferenceRequest(
                kind="completion",
                purpose="plan",
                prompt=prompt,
                module=ModuleName.PLANNING,
                phase=phase,
                agent=lead.name,
                step=step,
                output_tokens=OUTPUT_TOKENS["plan"] + JOINT_PLAN_TOKENS_PER_AGENT * extra_agents,
            ),
        )
        return prompt

    def joint_decisions(
        self,
        step: int,
        lead: EmbodiedAgent,
        members: Sequence[EmbodiedAgent],
        candidates_by_agent: dict[str, Sequence[Candidate]],
        prompt: Prompt,
        lead_prompt_tokens: int,
        quality_bonus: float = 1.0,
    ) -> dict[str, Decision]:
        """Draw each member's subgoal from one joint call, in turn, on
        ``lead``'s stream: every draw carries the coordination penalty of
        ``len(members)`` and skips targets earlier members were assigned.
        Only the lead's decision reports prompt tokens."""
        decisions: dict[str, Decision] = {}
        blacklist = lead.state.blacklisted(step)
        rng = lead.context.rng
        assigned: set[tuple[str, str]] = set()
        for member in members:
            request = DecisionRequest(
                candidates=filter_assigned(candidates_by_agent[member.name], assigned),
                difficulty=self.env.task.difficulty,
                n_joint=len(members),
                blacklist=blacklist,
                quality_bonus=quality_bonus,
            )
            outcome = lead.planner_llm.kernel.decide(request, prompt.tokens, rng)
            decision = Decision(
                subgoal=outcome.candidate.subgoal,
                fault=outcome.fault,
                prompt_tokens=lead_prompt_tokens if member is lead else 0,
                output_tokens=0,
            )
            decision = member.state.maybe_repeat_fault(decision, rng)
            self.metrics.record_fault(decision.fault)
            decisions[member.name] = decision
            member.state.last_intent = decision.subgoal
            if decision.subgoal.target:
                assigned.add((decision.subgoal.name, decision.subgoal.target))
        return decisions

    def execute_team(
        self,
        step: int,
        decisions: dict[str, Decision],
        bundles: dict[str, PerceptionBundle],
        lead_of: dict[str, EmbodiedAgent],
    ) -> None:
        """Run every agent's decision, reviewed by its lead: a lead reviews
        (and may replan) itself; a worker's outcome is verified by its lead
        (COHERENT's execution-feedback-adjustment loop), whose blacklist
        and memory take the repair."""
        for agent in self.agents:
            name = agent.name
            self.execute_and_reflect(
                step, agent, bundles[name], decisions[name], reviewer=lead_of[name]
            )


def _step_record(
    step: int, agent: EmbodiedAgent, decision: Decision, outcome: ExecutionOutcome
) -> StepRecord:
    return StepRecord(
        step=step,
        agent=agent.name,
        subgoal=decision.subgoal,
        fault=decision.fault,
        primitive_count=outcome.primitive_count,
        execution_success=outcome.success,
        prompt_tokens=decision.prompt_tokens,
        output_tokens=decision.output_tokens,
    )


def filter_assigned(
    candidates: Sequence[Candidate], assigned: set[tuple[str, str]]
) -> Sequence[Candidate]:
    """Drop options already claimed by an earlier agent in the joint plan.

    Conflict-free task assignment is the central paradigm's selling point:
    the coordinator never deliberately sends two robots after the same
    object.  Untargeted options (explore, idle) are always retained, and
    if deduplication would leave nothing, the original list survives so
    the agent still acts.
    """
    if not assigned:
        return candidates
    filtered = [
        candidate
        for candidate in candidates
        if not candidate.subgoal.target
        or (candidate.subgoal.name, candidate.subgoal.target) not in assigned
    ]
    if len(filtered) == len(candidates):
        # Nothing dropped: hand back the caller's sequence, not a copy.
        return candidates
    return filtered or candidates
