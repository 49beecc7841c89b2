"""Hybrid multi-agent paradigm (HMAS: central proposal + local feedback).

HMAS combines the two multi-agent styles: a central agent primes the step
with an initial joint plan, each worker sends one short LLM-generated
feedback message, and the central planner refines the plan in a second
call that benefits from the feedback (a small quality bonus).  Cost sits
between centralized (2 central calls instead of 1) and decentralized
(n short feedback calls instead of n full dialogue rounds).
"""

from __future__ import annotations

from repro.core.clock import ModuleName
from repro.core.paradigms.centralized import CentralizedLoop, filter_assigned
from repro.core.types import Decision
from repro.llm.behavior import DecisionRequest
from repro.llm.prompt import PromptBuilder
from repro.llm.requests import InferenceRequest
from repro.llm.simulated import OUTPUT_TOKENS

#: Joint-plan quality multiplier after a local feedback round: workers
#: flag infeasibilities the central planner cannot see, recovering part of
#: the coordination penalty.
FEEDBACK_QUALITY_BONUS = 1.08


class HybridLoop(CentralizedLoop):
    """HMAS: initial central plan → worker feedback → refined central plan."""

    def step(self, step: int) -> None:
        bundles = self.perceive_all(step)
        central_bundle = self._aggregate_feedback(bundles)
        candidates_by_agent = {
            agent.name: self.env.candidates(agent.name, central_bundle.beliefs)
            for agent in self.agents
        }
        # Initial proposal primes the dialogue (its decisions are discarded
        # after feedback, but its latency and tokens are fully paid).
        self._joint_plan(step, central_bundle, candidates_by_agent, sample_decisions=False)
        feedback_received = self._feedback_round(step, bundles)
        decisions = self._refined_plan(
            step, central_bundle, candidates_by_agent, feedback_received
        )
        self._broadcast_instructions(step, decisions, bundles)
        for agent in self.agents:
            decision = decisions[agent.name]
            if agent is self.central:
                self.execute_and_reflect(step, agent, central_bundle, decision)
            else:
                outcome = agent.act(self.env, decision)
                self._record_worker(step, agent, decision, outcome)

    def _feedback_round(self, step: int, bundles) -> bool:
        """Each worker sends one short feedback message to the centre.

        Returns whether any feedback arrived (the refinement bonus only
        applies when it did — with communication ablated, the second plan
        has nothing extra to work from).
        """
        any_feedback = False
        for agent in self.agents:
            if agent is self.central or agent.comm is None:
                continue
            bundle = bundles[agent.name]
            message = agent.comm.compose(
                step=step,
                recipients=(self.central.name,),
                known_facts=list(bundle.current_facts),
                intent=agent.state.last_intent,
                dialogue=bundle.dialogue,
            )
            if message is None:
                continue
            self.deliver_message(message, bundles)
            any_feedback = True
        # The centre's refined plan follows immediately; merge its staged
        # feedback before that second call reads anything belief-derived.
        self.flush_deliveries(bundles)
        # The workers' feedback composes are the phase-concurrent unit:
        # under batched serving they dispatch here as one batch.
        self.flush_inference()
        return any_feedback

    def _refined_plan(
        self, step: int, central_bundle, candidates_by_agent, feedback_received: bool = True
    ) -> dict[str, Decision]:
        """Second central call, boosted by the feedback it just received."""
        n_agents = len(self.agents)
        builder = PromptBuilder(
            system_text=(
                "Refine the joint plan considering the feedback each robot "
                "just provided about feasibility and conflicts."
            ),
            task_text=self.central.planner.task_text,
        )
        builder.observation(central_bundle.observation)
        builder.dialogue(central_bundle.dialogue)
        for name, candidates in candidates_by_agent.items():
            builder.candidates(candidates)
            builder.extra("agent_header", f"Options above are for {name}.")
        prompt = builder.build()
        output_tokens = OUTPUT_TOKENS["plan"] + 45 * (n_agents - 1)
        llm = self.central.planner_llm
        self.scheduler.submit(
            llm,
            InferenceRequest(
                kind="completion",
                purpose="plan",
                prompt=prompt,
                module=ModuleName.PLANNING,
                phase="refine_plan",
                agent=self.central.name,
                step=step,
                output_tokens=output_tokens,
            ),
        )
        decisions: dict[str, Decision] = {}
        blacklist = self.central.state.blacklisted(step)
        bonus = FEEDBACK_QUALITY_BONUS if feedback_received else 1.0
        assigned: set[tuple[str, str]] = set()
        for agent in self.agents:
            request = DecisionRequest(
                candidates=filter_assigned(candidates_by_agent[agent.name], assigned),
                difficulty=self.env.task.difficulty,
                n_joint=n_agents,
                blacklist=blacklist,
                quality_bonus=bonus,
            )
            outcome = llm.kernel.decide(request, prompt.tokens, self.central.context.rng)
            decision = Decision(
                subgoal=outcome.candidate.subgoal,
                fault=outcome.fault,
                prompt_tokens=0,
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
