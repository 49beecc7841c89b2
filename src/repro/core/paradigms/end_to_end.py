"""End-to-end paradigm (paper Sec. II-C): vision-language-action models.

No modular pipeline: a single VLA forward pass maps the current
observation directly to the next action, one call per control step.
Short per-call latency and strong short-horizon competence, but no
memory, no reflection, and no deliberate long-horizon decomposition —
which is why the suite's long-horizon systems are modular and the
end-to-end systems (RT-2, RoboVLMs, Octo) target short tasks.
"""

from __future__ import annotations

from repro.core.beliefs import Beliefs
from repro.core.clock import ModuleName
from repro.core.paradigms.base import ParadigmLoop
from repro.core.types import StepRecord
from repro.llm.behavior import DecisionRequest
from repro.llm.prompt import PromptBuilder
from repro.llm.requests import InferenceRequest

#: The VLA's internal vision encoder, charged to SENSING per tick.
VLA_VISION_ENCODE_SECONDS = 0.04


class EndToEndLoop(ParadigmLoop):
    """One VLA call per control step, acting directly."""

    def step(self, step: int) -> None:
        agent = self.agents[0]
        agent.begin_step(step)
        self.clock.advance(
            VLA_VISION_ENCODE_SECONDS, ModuleName.SENSING, phase="vla_encoder"
        )
        facts = self.env.visible_facts(agent.name)
        observation = self.env.observation(agent.name, tuple(facts))
        beliefs = Beliefs.from_facts(agent.static_facts)
        beliefs.update(facts)
        candidates = self.env.candidates(agent.name, beliefs)
        prompt = (
            PromptBuilder(task_text=agent.planner.task_text)
            .observation(observation)
            .build()
        )
        request = DecisionRequest(
            candidates=candidates, difficulty=self.env.task.difficulty
        )
        result = self.scheduler.submit(
            agent.planner_llm,
            InferenceRequest(
                kind="decision",
                purpose="primitive",
                prompt=prompt,
                module=ModuleName.PLANNING,
                phase="vla_policy",
                agent=agent.name,
                step=step,
                decision=request,
            ),
        )
        decision = result.decision
        assert decision is not None
        outcome = agent.act(self.env, decision)
        self.metrics.record_step(
            StepRecord(
                step=step,
                agent=agent.name,
                subgoal=decision.subgoal,
                fault=decision.fault,
                primitive_count=outcome.primitive_count,
                execution_success=outcome.success,
                prompt_tokens=decision.prompt_tokens,
                output_tokens=decision.output_tokens,
            )
        )
