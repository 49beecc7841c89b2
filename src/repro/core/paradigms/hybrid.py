"""Hybrid multi-agent paradigm (HMAS: central proposal + local feedback).

HMAS combines the two multi-agent styles: a central agent primes the step
with an initial joint plan, each worker sends one short LLM-generated
feedback message, and the central planner refines the plan in a second
call that benefits from the feedback (a small quality bonus).  Cost sits
between centralized (2 central calls instead of 1) and decentralized
(n short feedback calls instead of n full dialogue rounds).
"""

from __future__ import annotations

from repro.core.paradigms.centralized import CENTRAL_SYSTEM_TEXT, CentralizedLoop
from repro.core.types import Decision

#: Joint-plan quality multiplier after a local feedback round: workers
#: flag infeasibilities the central planner cannot see, recovering part of
#: the coordination penalty.
FEEDBACK_QUALITY_BONUS = 1.08

REFINE_SYSTEM_TEXT = (
    "Refine the joint plan considering the feedback each robot "
    "just provided about feasibility and conflicts."
)


class HybridLoop(CentralizedLoop):
    """HMAS: initial central plan → worker feedback → refined central plan."""

    def plan_step(self, step, bundles, central_bundle, candidates_by_agent) -> dict[str, Decision]:
        central = self.central
        # Initial proposal primes the dialogue: no decisions are drawn
        # from it, but its latency and tokens are fully paid.
        self.joint_call(
            step,
            central,
            central_bundle,
            candidates_by_agent,
            CENTRAL_SYSTEM_TEXT,
            "joint_plan",
            central_bundle.memory_facts,
        )
        feedback_received = self._feedback_round(step, bundles)
        # The refinement reads the feedback through the dialogue, plans
        # over the candidates the proposal saw, and carries no memory.
        prompt = self.joint_call(
            step,
            central,
            central_bundle,
            candidates_by_agent,
            REFINE_SYSTEM_TEXT,
            "refine_plan",
            (),
        )
        bonus = FEEDBACK_QUALITY_BONUS if feedback_received else 1.0
        return self.joint_decisions(
            step, central, self.agents, candidates_by_agent, prompt, 0, bonus
        )

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
            known = list(bundles[agent.name].current_facts)
            if self.speak(step, agent, (self.central.name,), known, bundles):
                any_feedback = True
        # The centre's refined plan follows immediately; merge its staged
        # feedback before that second call reads anything belief-derived.
        self.bus.flush(bundles)
        # The workers' feedback composes are the phase-concurrent unit:
        # under batched serving they dispatch here as one batch.
        self.flush_inference()
        return any_feedback
