"""Centralized multi-agent paradigm (paper Sec. II-D).

One central planner (hosted on the first agent's module stack) gathers
every agent's local observations, produces the *joint* plan in a single
LLM call whose prompt and output scale linearly with the number of agents,
and broadcasts instructions through one communication call.  Decision
quality per agent carries the joint-planning coordination penalty
(``n_joint = n_agents``), which is the mechanism behind the sharp success
decline of Fig. 7a — while the call count stays O(1) per step, giving the
favourable latency scaling of Fig. 7d.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.agent import EmbodiedAgent, PerceptionBundle
from repro.core.clock import ModuleName
from repro.core.paradigms.base import ParadigmLoop
from repro.core.types import Candidate, Decision
from repro.llm.behavior import DecisionRequest
from repro.llm.prompt import PromptBuilder
from repro.llm.requests import InferenceRequest
from repro.llm.simulated import OUTPUT_TOKENS

#: Output tokens the joint plan spends per additional agent.
JOINT_PLAN_TOKENS_PER_AGENT = 45


class CentralizedLoop(ParadigmLoop):
    """Central planner, distributed actuators."""

    @property
    def central(self) -> EmbodiedAgent:
        return self.agents[0]

    def step(self, step: int) -> None:
        bundles = self.perceive_all(step)
        central_bundle = self._aggregate_feedback(bundles)
        candidates_by_agent = {
            agent.name: self.env.candidates(agent.name, central_bundle.beliefs)
            for agent in self.agents
        }
        decisions = self._joint_plan(step, central_bundle, candidates_by_agent)
        self._broadcast_instructions(step, decisions, bundles)
        for agent in self.agents:
            decision = decisions[agent.name]
            if agent is self.central:
                self.execute_and_reflect(step, agent, central_bundle, decision)
            else:
                # Worker agents execute; reflection is the central agent's
                # job, so workers run without their own replan loop.
                outcome = agent.act(self.env, decision)
                self._record_worker(step, agent, decision, outcome)

    # ------------------------------------------------------------------ #
    # Feedback aggregation
    # ------------------------------------------------------------------ #

    def _aggregate_feedback(
        self, bundles: dict[str, PerceptionBundle]
    ) -> PerceptionBundle:
        """Merge every agent's local view into the central belief state.

        Feedback dispatch is a symbolic bus (state structs, not language),
        so it costs store time in central memory but no LLM calls.
        """
        central_bundle = bundles[self.central.name]
        for agent in self.agents:
            if agent is self.central:
                continue
            facts = bundles[agent.name].current_facts
            central_bundle.beliefs.update(facts)
            if self.central.memory is not None:
                self.central.memory.store_observation(facts)
        return central_bundle

    # ------------------------------------------------------------------ #
    # Joint planning
    # ------------------------------------------------------------------ #

    def _joint_plan(
        self,
        step: int,
        central_bundle: PerceptionBundle,
        candidates_by_agent: dict[str, Sequence[Candidate]],
        sample_decisions: bool = True,
    ) -> dict[str, Decision]:
        """One LLM call deciding every agent's next subgoal.

        With ``sample_decisions=False`` only the call's latency and token
        cost are paid (HMAS's priming proposal: it is superseded by the
        refined plan, so no decisions are drawn from it).
        """
        n_agents = len(self.agents)
        builder = PromptBuilder(
            system_text=_central_system_text(),
            task_text=self.central.planner.task_text,
        )
        builder.observation(central_bundle.observation)
        builder.memory(central_bundle.memory_facts)
        builder.dialogue(central_bundle.dialogue)
        for name, candidates in candidates_by_agent.items():
            builder.candidates(candidates)
            builder.extra("agent_header", f"Options above are for {name}.")
        prompt = builder.build()
        prompt_tokens = prompt.tokens
        output_tokens = OUTPUT_TOKENS["plan"] + JOINT_PLAN_TOKENS_PER_AGENT * (
            n_agents - 1
        )
        llm = self.central.planner_llm
        self.scheduler.submit(
            llm,
            InferenceRequest(
                kind="completion",
                purpose="plan",
                prompt=prompt,
                module=ModuleName.PLANNING,
                phase="joint_plan",
                agent=self.central.name,
                step=step,
                output_tokens=output_tokens,
            ),
        )
        decisions: dict[str, Decision] = {}
        if not sample_decisions:
            return decisions
        blacklist = self.central.state.blacklisted(step)
        assigned: set[tuple[str, str]] = set()
        for agent in self.agents:
            candidates = filter_assigned(candidates_by_agent[agent.name], assigned)
            request = DecisionRequest(
                candidates=candidates,
                difficulty=self.env.task.difficulty,
                n_joint=n_agents,
                blacklist=blacklist,
            )
            outcome = llm.kernel.decide(request, prompt_tokens, self.central.context.rng)
            decision = Decision(
                subgoal=outcome.candidate.subgoal,
                fault=outcome.fault,
                prompt_tokens=prompt_tokens if agent is self.central else 0,
                output_tokens=0,
                latency=0.0,
            )
            decision = agent.state.maybe_repeat_fault(decision, self.central.context.rng)
            self.metrics.record_fault(decision.fault)
            decisions[agent.name] = decision
            agent.state.last_intent = decision.subgoal
            if decision.subgoal.target:
                assigned.add((decision.subgoal.name, decision.subgoal.target))
        return decisions

    # ------------------------------------------------------------------ #
    # Instruction broadcast
    # ------------------------------------------------------------------ #

    def _broadcast_instructions(
        self,
        step: int,
        decisions: dict[str, Decision],
        bundles: dict[str, PerceptionBundle],
    ) -> None:
        """One communication call turns the joint plan into instructions."""
        comm = self.central.comm
        if comm is None:
            return  # w/o communication: symbolic dispatch, zero cost
        known = list(bundles[self.central.name].current_facts)
        message = comm.compose(
            step=step,
            recipients=tuple(a.name for a in self.agents if a is not self.central),
            known_facts=known,
            intent=decisions[self.central.name].subgoal,
            dialogue=bundles[self.central.name].dialogue,
        )
        if message is None:
            return
        self.deliver_message(message, bundles)
        # The workers' beliefs must hold the broadcast before execution.
        self.flush_deliveries(bundles)
        # Serving phase boundary: the broadcast never batches with the
        # execution-side calls that follow it.
        self.flush_inference()

    # ------------------------------------------------------------------ #
    # Worker bookkeeping
    # ------------------------------------------------------------------ #

    def _record_worker(self, step, agent, decision, outcome) -> None:
        """Book-keep a worker's step, with central review of its outcome.

        In centralized systems the *central* reflection module verifies
        every robot's execution (COHERENT's execution-feedback-adjustment
        loop), so a worker's fault is corrected centrally: blacklisted in
        the joint planner and cleared from the worker's self-conditioning.
        """
        from repro.core.types import StepRecord

        corrected = False
        reflection = self.central.reflection
        if reflection is not None:
            report = reflection.review(step, decision, outcome)
            if report.judged_failure:
                corrected = True
                self.central.state.add_blacklist(decision.subgoal, step)
                if self.central.memory is not None and report.forget_subject:
                    self.central.memory.forget(
                        report.forget_subject, report.forget_relation
                    )
        agent.state.note_outcome(
            decision, wasted=self.is_wasteful(decision, outcome), corrected=corrected
        )
        self.metrics.record_step(
            StepRecord(
                step=step,
                agent=agent.name,
                subgoal=decision.subgoal,
                fault=decision.fault,
                reflected=corrected,
                primitive_count=outcome.primitive_count,
                execution_success=outcome.success,
                prompt_tokens=decision.prompt_tokens,
                output_tokens=decision.output_tokens,
            )
        )


def _central_system_text() -> str:
    return (
        "You are the central coordinator of a multi robot team. Read every "
        "robot's local state and choose one candidate action per robot so "
        "that the joint plan makes progress without conflicts."
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
