"""Reflection module: post-execution verification and error correction.

After every executed subgoal the reflector compares intent against outcome
(an LLM judgment call with a small prompt).  On a detected failure it
returns repair directives: blacklist the subgoal, forget the stale belief
that motivated it, and replan within the same macro step.  The paper finds
this loop cheap (≈8.6 % of latency) but critical (−33 pp success without
it) — both properties emerge from this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.clock import ModuleName
from repro.core.modules.base import ModuleContext
from repro.core.types import Decision
from repro.envs.base import ExecutionOutcome
from repro.llm.prompt import REFLECTOR_SYSTEM_TEXT, PromptBuilder
from repro.llm.requests import InferenceRequest
from repro.llm.simulated import SimulatedLLM

#: Subgoal families whose failure indicates a wrong location belief.
FETCH_LIKE_SUBGOALS = frozenset({"fetch", "pickup", "gather", "transport", "stage"})


def is_wasteful(decision: Decision, outcome: ExecutionOutcome) -> bool:
    """A step that consumed time without advancing the task: it failed
    outright, or it "succeeded" but was a faulty choice that made no
    progress.  This is the ground truth a reflection judge tries to
    recover."""
    if not outcome.success:
        return True
    return decision.fault is not None and outcome.progress_delta <= 0.0


@dataclass(frozen=True)
class ReflectionReport:
    """Outcome of one reflection pass."""

    judged_failure: bool
    should_replan: bool
    forget_subject: str = ""
    forget_relation: str = ""


class ReflectionModule:
    """LLM-backed outcome verification for one agent."""

    def __init__(self, context: ModuleContext, llm: SimulatedLLM) -> None:
        self.context = context
        self.llm = llm

    def review(
        self,
        step: int,
        decision: Decision,
        outcome: ExecutionOutcome,
    ) -> ReflectionReport:
        """Judge whether the executed step achieved its intent."""
        prompt = (
            PromptBuilder(REFLECTOR_SYSTEM_TEXT)
            .extra("intent", f"The plan step was: {decision.subgoal.describe()}.")
            .extra(
                "result",
                f"The environment reports: {outcome.reason or 'completed'} "
                f"after {outcome.primitive_count} primitive actions.",
            )
            .build()
        )
        result = self.context.scheduler.submit(
            self.llm,
            InferenceRequest(
                kind="judgement",
                purpose="reflection",
                prompt=prompt,
                module=ModuleName.REFLECTION,
                phase="review",
                agent=self.context.agent,
                step=step,
                true_outcome=is_wasteful(decision, outcome),
            ),
        )
        verdict = result.verdict
        if not verdict:
            return ReflectionReport(judged_failure=False, should_replan=False)
        self.context.metrics.reflections_triggered += 1
        forget_subject = ""
        forget_relation = ""
        if (
            not outcome.success
            and decision.subgoal.target
            and decision.subgoal.name in FETCH_LIKE_SUBGOALS
        ):
            # Going for an object and not finding it impugns the location
            # belief.  Other failures (e.g. "deliver while not holding")
            # say nothing about where the object is — repairing there
            # would erase good knowledge.
            forget_subject = decision.subgoal.target
            forget_relation = "located_in"
        return ReflectionReport(
            judged_failure=True,
            should_replan=True,
            forget_subject=forget_subject,
            forget_relation=forget_relation,
        )
