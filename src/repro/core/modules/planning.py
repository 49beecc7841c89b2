"""Planning module: LLM-backed subgoal selection.

Builds the full structured prompt (system scaffold, task, observation,
retrieved memory, dialogue history, enumerated candidates), submits the
decision request through the episode's inference scheduler, which
charges the latency to the PLANNING budget.  Also implements
planning-guided multi-step execution (Recommendation 7): one call can
emit a queue of consecutive subgoals, amortizing prompt processing over
several macro steps.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.clock import ModuleName
from repro.core.modules.base import ModuleContext
from repro.core.modules.memory import ActionRecord
from repro.core.types import Candidate, Decision, Fact, Message, Observation, Subgoal
from repro.llm.behavior import DecisionRequest
from repro.llm.prompt import PLANNER_SYSTEM_TEXT, Prompt, PromptBuilder
from repro.llm.requests import InferenceRequest
from repro.llm.simulated import OUTPUT_TOKENS, SimulatedLLM

#: Cap on how many recent action records are rendered into the prompt
#: (systems summarize; they do not replay the whole action log verbatim).
MAX_ACTION_RECORDS_IN_PROMPT = 12

#: Extra output tokens factor per additional subgoal in a multi-step plan.
MULTISTEP_OUTPUT_FACTOR = 0.6


class PlanningModule:
    """High-level planner around one :class:`SimulatedLLM`."""

    def __init__(
        self,
        context: ModuleContext,
        llm: SimulatedLLM,
        task_text: str,
        difficulty: str,
    ) -> None:
        self.context = context
        self.llm = llm
        self.task_text = task_text
        self.difficulty = difficulty

    # ------------------------------------------------------------------ #
    # Prompt assembly
    # ------------------------------------------------------------------ #

    def build_prompt(
        self,
        observation: Observation,
        memory_facts: list[Fact],
        action_records: list[ActionRecord],
        dialogue: list[Message],
        candidates: Sequence[Candidate],
    ) -> Prompt:
        builder = PromptBuilder(PLANNER_SYSTEM_TEXT, self.task_text)
        builder.observation(observation)
        builder.memory(memory_facts)
        if action_records:
            recent = action_records[-MAX_ACTION_RECORDS_IN_PROMPT:]
            builder.described_list("action_history", recent)
        builder.dialogue(dialogue)
        builder.candidates(candidates)
        return builder.build()

    # ------------------------------------------------------------------ #
    # Decisions
    # ------------------------------------------------------------------ #

    def decide(
        self,
        candidates: Sequence[Candidate],
        prompt: Prompt,
        blacklist: frozenset[Subgoal] = frozenset(),
    ) -> Decision:
        """One planning decision for this agent; latency charged to PLANNING."""
        request = DecisionRequest(
            candidates=candidates, difficulty=self.difficulty, blacklist=blacklist
        )
        result = self.context.scheduler.submit(
            self.llm,
            InferenceRequest(
                kind="decision",
                purpose="plan",
                prompt=prompt,
                module=ModuleName.PLANNING,
                phase="plan",
                agent=self.context.agent,
                step=self.context.step,
                decision=request,
            ),
        )
        assert result.decision is not None
        return result.decision

    def decide_multi(
        self,
        candidates: Sequence[Candidate],
        prompt: Prompt,
        horizon: int,
        blacklist: frozenset[Subgoal] = frozenset(),
    ) -> list[Decision]:
        """Plan ``horizon`` consecutive subgoals in one call (Rec. 7).

        The single call pays one prompt-processing pass; output length
        grows sub-linearly per extra subgoal.  Decision quality is sampled
        per subgoal (a long plan can be right early and wrong late).
        """
        if horizon < 2:
            raise ValueError(f"horizon must be >= 2: {horizon}")
        request = DecisionRequest(
            candidates=candidates,
            difficulty=self.difficulty,
            blacklist=blacklist,
        )
        decisions: list[Decision] = []
        prompt_tokens = prompt.tokens
        base_output = OUTPUT_TOKENS["plan"]
        output_tokens = int(base_output * (1 + MULTISTEP_OUTPUT_FACTOR * (horizon - 1)))
        self.context.scheduler.submit(
            self.llm,
            InferenceRequest(
                kind="completion",
                purpose="plan",
                prompt=prompt,
                module=ModuleName.PLANNING,
                phase="plan_multi",
                agent=self.context.agent,
                step=self.context.step,
                output_tokens=output_tokens,
            ),
        )
        chosen: set[Subgoal] = set()
        remaining = list(candidates)
        for index in range(horizon):
            pool = [c for c in remaining if c.subgoal not in chosen] or remaining
            step_request = DecisionRequest(
                candidates=pool,
                difficulty=request.difficulty,
                blacklist=request.blacklist,
            )
            outcome = self.llm.kernel.decide(step_request, prompt_tokens, self.context.rng)
            chosen.add(outcome.candidate.subgoal)
            decision = Decision(
                subgoal=outcome.candidate.subgoal,
                fault=outcome.fault,
                prompt_tokens=prompt_tokens if index == 0 else 0,
                output_tokens=0,
            )
            self.context.metrics.record_fault(decision.fault)
            decisions.append(decision)
        return decisions
