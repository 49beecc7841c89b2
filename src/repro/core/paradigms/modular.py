"""Single-agent modularized paradigm (paper Sec. II-B).

The sense → retrieve → plan → execute → reflect pipeline of JARVIS-1,
DaDu-E, MP5, DEPS, and EmbodiedGPT.  Systems with an action-selection LLM
stage pay that extra call per step (CoELA-style; none of the single-agent
suite members use it, but the flag is honoured for custom systems).
"""

from __future__ import annotations

from repro.core.paradigms.base import ParadigmLoop


class ModularLoop(ParadigmLoop):
    """One agent, full modular pipeline."""

    def step(self, step: int) -> None:
        agent = self.agents[0]
        bundle = agent.perceive(self.env, step)
        decision = agent.plan(self.env, bundle)
        if self.config.action_selection_llm:
            self.action_selection_call(step, agent, decision)
        self.execute_and_reflect(step, agent, bundle, decision)
