"""Execution module: lowering subgoals to primitives and acting.

With the module present, the environment's grounded low-level planners
(A*/RRT/action-list/grasp) run and their compute plus actuation time is
charged to the EXECUTION budget — the non-LLM latency the paper measures
at 24-49 % for manipulation-heavy systems.

With the module ablated ("w/o Exec.", Fig. 3) the planning LLM must emit
every primitive itself: one generation call per primitive with a reduced
per-primitive reliability (the vastly expanded decision space the paper
describes).  Long subgoals then almost never complete, and the episode
runs into the step limit — reproducing the figure's "Not Applicable /
L_max" outcome.
"""

from __future__ import annotations

from repro.core.clock import ModuleName
from repro.core.modules.base import ModuleContext
from repro.core.types import Subgoal
from repro.envs.base import Environment, ExecutionOutcome
from repro.llm.prompt import PromptBuilder
from repro.llm.requests import InferenceRequest
from repro.llm.simulated import SimulatedLLM

#: Per-primitive reliability multiplier when the LLM drives low-level
#: control directly (no execution module).
LLM_PRIMITIVE_QUALITY = 0.82

#: Actuation seconds wasted when an LLM-driven primitive sequence derails.
DERAILED_ACTUATION_SECONDS = 2.0


class ExecutionModule:
    """Grounded executor for one agent (optionally LLM-primitive mode)."""

    def __init__(
        self,
        context: ModuleContext,
        enabled: bool,
        fallback_llm: SimulatedLLM | None = None,
    ) -> None:
        if not enabled and fallback_llm is None:
            raise ValueError("disabled execution module needs a fallback LLM")
        self.context = context
        self.enabled = enabled
        self.fallback_llm = fallback_llm

    def execute(self, env: Environment, subgoal: Subgoal) -> ExecutionOutcome:
        if self.enabled:
            return self._grounded(env, subgoal)
        return self._llm_primitives(env, subgoal)

    # ------------------------------------------------------------------ #
    # Grounded path
    # ------------------------------------------------------------------ #

    def _grounded(self, env: Environment, subgoal: Subgoal) -> ExecutionOutcome:
        outcome = env.execute(self.context.agent, subgoal, self.context.rng)
        self.context.clock.advance(
            outcome.compute.seconds() + outcome.actuation_seconds,
            ModuleName.EXECUTION,
            phase=subgoal.name,
        )
        return outcome

    # ------------------------------------------------------------------ #
    # LLM-primitive fallback (w/o Exec. ablation)
    # ------------------------------------------------------------------ #

    def _llm_primitives(self, env: Environment, subgoal: Subgoal) -> ExecutionOutcome:
        assert self.fallback_llm is not None
        n_primitives = max(1, env.expected_primitives(self.context.agent, subgoal))
        prompt = (
            PromptBuilder()
            .extra(
                "instruction",
                "You are directly issuing one low level motor primitive for "
                f"the step {subgoal.describe()}. Output exactly one primitive.",
            )
            .build()
        )
        reliability = self.fallback_llm.kernel.probability_correct(
            _PRIMITIVE_REQUEST, prompt.tokens
        )
        per_primitive_p = reliability * LLM_PRIMITIVE_QUALITY
        for index in range(n_primitives):
            self.context.scheduler.submit(
                self.fallback_llm,
                InferenceRequest(
                    kind="generation",
                    purpose="primitive",
                    prompt=prompt,
                    module=ModuleName.EXECUTION,
                    phase="llm_primitive",
                    agent=self.context.agent,
                    step=self.context.step,
                    # Primitive i+1 is only issued if i came out right:
                    # the chain is serial and must never batch.
                    sequential=True,
                ),
            )
            if self.context.rng.random() > per_primitive_p:
                self.context.clock.advance(
                    DERAILED_ACTUATION_SECONDS, ModuleName.EXECUTION, phase="derailed"
                )
                return ExecutionOutcome.failure(
                    f"LLM primitive {index + 1}/{n_primitives} derailed",
                    actuation_seconds=0.0,
                )
        # Every primitive came out right: the grounded effect applies.
        return self._grounded(env, subgoal)


from repro.core.types import Candidate  # noqa: E402  (tail import avoids cycle noise)
from repro.llm.behavior import DecisionRequest  # noqa: E402

_PRIMITIVE_REQUEST = DecisionRequest(
    candidates=[Candidate(subgoal=Subgoal(name="primitive"), utility=1.0)],
    difficulty="medium",
)
