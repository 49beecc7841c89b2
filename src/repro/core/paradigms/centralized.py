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
from repro.core.paradigms.base import ParadigmLoop
from repro.core.types import Candidate, Decision

CENTRAL_SYSTEM_TEXT = (
    "You are the central coordinator of a multi robot team. Read every "
    "robot's local state and choose one candidate action per robot so "
    "that the joint plan makes progress without conflicts."
)


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
        decisions = self.plan_step(step, bundles, central_bundle, candidates_by_agent)
        self._broadcast_instructions(step, bundles)
        # Reflection is the central agent's job: workers run without
        # their own replan loop, and the centre reviews them.
        self.execute_team(step, decisions, bundles, dict.fromkeys(decisions, self.central))

    def plan_step(
        self,
        step: int,
        bundles: dict[str, PerceptionBundle],
        central_bundle: PerceptionBundle,
        candidates_by_agent: dict[str, Sequence[Candidate]],
    ) -> dict[str, Decision]:
        """One LLM call deciding every agent's next subgoal."""
        prompt = self.joint_call(
            step,
            self.central,
            central_bundle,
            candidates_by_agent,
            CENTRAL_SYSTEM_TEXT,
            "joint_plan",
            central_bundle.memory_facts,
        )
        return self.joint_decisions(
            step, self.central, self.agents, candidates_by_agent, prompt, prompt.tokens
        )

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
    # Instruction broadcast
    # ------------------------------------------------------------------ #

    def _broadcast_instructions(self, step: int, bundles: dict[str, PerceptionBundle]) -> None:
        """One communication call turns the joint plan into instructions;
        it speaks the centre's own subgoal, its ``last_intent`` since
        :meth:`joint_decisions`."""
        central = self.central
        if central.comm is None:
            return  # w/o communication: symbolic dispatch, zero cost
        recipients = tuple(a.name for a in self.agents if a is not central)
        known = list(bundles[central.name].current_facts)
        if not self.speak(step, central, recipients, known, bundles):
            return
        # The workers' beliefs must hold the broadcast before execution.
        self.bus.flush(bundles)
        # Serving phase boundary: the broadcast never batches with the
        # execution-side calls that follow it.
        self.flush_inference()
