"""Decentralized multi-agent paradigm (paper Sec. II-E).

Every agent runs its own full module stack.  A macro step is:

1. concurrent per-agent perception,
2. dialogue: one or more rounds of turn-taking message generation (each
   an LLM call whose prompt includes the growing dialogue history — the
   quadratic token/latency scaling of Fig. 7e-f),
3. independent planning per agent (intent facts learned from teammates
   discount already-claimed targets),
4. concurrent execution, then per-agent reflection.

CoELA's documented structure is reproduced: messages are pre-generated
before planning every step, an extra action-selection LLM call follows
planning, and message usefulness (novel-fact ratio) is measured so the
"only ~20 % of messages contribute" analysis can be rerun.

The ``plan_then_comm`` optimization (Rec. 8) flips phases 2 and 3 and
composes messages only when the planner found something worth saying;
``comm_filter`` (Rec. 10) suppresses redundant generations inside the
communication module itself.  Request batching (Rec. 1): every call
rides the loop's inference scheduler, and a config that serves
``batched`` (``with_batching``) dispatches each phase's per-agent
requests as occupancy-aware batches at the ``flush_inference`` points
below.
"""

from __future__ import annotations

from repro.core.agent import PerceptionBundle
from repro.core.paradigms.base import ParadigmLoop


def dialogue_rounds(n_agents: int) -> int:
    """Negotiation rounds per step; grows with team size (Sec. VI)."""
    return 1 + max(0, (n_agents - 2) // 4)


class DecentralizedLoop(ParadigmLoop):
    """Peer-to-peer cooperation with dialogue-based coordination."""

    def _build(self) -> None:
        super()._build()
        #: Each agent's broadcast recipients: every teammate, in agent
        #: order, built once per episode.
        self._recipients = {
            agent.name: tuple(other.name for other in self.agents if other is not agent)
            for agent in self.agents
        }

    def step(self, step: int) -> None:
        bundles = self.perceive_all(step)
        if not self.config.optimizations.plan_then_comm:
            self._dialogue_phase(step, bundles)
        decisions = {}
        for agent in self.agents:
            decisions[agent.name] = agent.plan(self.env, bundles[agent.name])
            if self.config.action_selection_llm:
                self.action_selection_call(step, agent, decisions[agent.name])
        # Per-agent plans (and CoELA's action selections) are issued
        # independently: under batched serving they dispatch here as one
        # batch per purpose.
        self.flush_inference()
        if self.config.optimizations.plan_then_comm:
            self._dialogue_phase(step, bundles, post_plan=True)
        for agent in self.agents:
            self.execute_and_reflect(
                step, agent, bundles[agent.name], decisions[agent.name]
            )

    # ------------------------------------------------------------------ #
    # Dialogue
    # ------------------------------------------------------------------ #

    def _dialogue_phase(
        self,
        step: int,
        bundles: dict[str, PerceptionBundle],
        post_plan: bool = False,
    ) -> None:
        rounds = 1 if post_plan else dialogue_rounds(len(self.agents))
        # The per-agent known-facts snapshot is hoisted out of the round
        # loop: it is fixed at perceive time, and a stable list identity
        # lets the comm module stage its sorted payload once per step.
        known_by_agent: dict[str, list] = {}
        for _round in range(rounds):
            for agent in self.agents:
                if agent.comm is None:
                    continue
                known = known_by_agent.get(agent.name)
                if known is None:
                    bundle = bundles[agent.name]
                    known = list(bundle.current_facts) + bundle.memory_facts
                    known_by_agent[agent.name] = known
                recipients = self._recipients[agent.name]
                # Rec. 8: after planning, only speak when there is news.
                self.speak(step, agent, recipients, known, bundles, force_filter=post_plan)
            # A round's composes are the phase-concurrent unit: each
            # speaker drafts against the dialogue as it stood when the
            # round began its turn order, so batched serving dispatches
            # one compose batch per round.
            self.flush_inference()
        self.bus.flush(bundles)
