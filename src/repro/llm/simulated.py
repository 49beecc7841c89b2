"""The simulated LLM engine: behaviour kernel + latency model.

``SimulatedLLM`` is the drop-in substitute for "a GPT-4 API call" or "local
Llama inference" everywhere in the stack.  Its one entry point,
:meth:`SimulatedLLM.execute`, serves the typed request envelopes of
:mod:`repro.llm.requests`, and the scheduler (:mod:`repro.llm.scheduler`)
is its only caller.  It is *pure* with respect to time: a call returns
its modeled latency and the scheduler advances the episode's virtual
clock, which keeps the engine trivially unit-testable.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import Candidate, Decision, Subgoal
from repro.llm.behavior import BehaviorKernel, DecisionRequest
from repro.llm.deployment import DeploymentOptions
from repro.llm.profiles import LLMProfile, get_profile
from repro.llm.requests import InferenceRequest, InferenceResult

#: Typical generation lengths (tokens) per call purpose, matching the mix
#: of calls the paper attributes to each module (plans are long, action
#: selections short).  Its keys are :data:`repro.llm.requests.PURPOSES`.
OUTPUT_TOKENS = {
    "plan": 130,
    "message": 70,
    "action_selection": 24,
    "reflection": 32,
    "primitive": 16,
}

#: What a judgement's accuracy is computed for: one obvious option at the
#: default difficulty, so only the model and the prompt length matter.
_JUDGE_REQUEST = DecisionRequest(
    candidates=(Candidate(subgoal=Subgoal(name="judge"), utility=1.0),)
)


class SimulatedLLM:
    """A language model stand-in with calibrated latency and quality.

    Parameters
    ----------
    profile:
        The model profile (or its registry name).
    rng:
        Episode-scoped random generator; all stochasticity flows from it.
    deployment:
        Serving options (quantization, runtime).
    """

    def __init__(
        self,
        profile: LLMProfile | str,
        rng: np.random.Generator,
        deployment: DeploymentOptions | None = None,
    ) -> None:
        base = get_profile(profile) if isinstance(profile, str) else profile
        self.deployment = deployment or DeploymentOptions()
        self.profile = self.deployment.effective_profile(base)
        self._rng = rng
        self.kernel = BehaviorKernel(
            reasoning=self.profile.reasoning,
            format_compliance=self.profile.format_compliance,
            context_focus=self.profile.context_focus,
        )

    def execute(self, request: InferenceRequest) -> InferenceResult:
        """Serve one request: its content now, its modeled cost in the result.

        Content resolves here, in request order, so the rng stream does
        not depend on how the scheduler later charges latency.  A call
        costs :meth:`~repro.llm.profiles.LLMProfile.call_latency` at the
        prompt's tokens and the purpose's :data:`OUTPUT_TOKENS` (a
        ``completion`` names its own output length).  Per kind:

        - ``decision``: the kernel's draws choose one candidate.  Each
          format retry costs a full extra round trip, which is how
          malformed outputs from small local models inflate end-to-end
          latency (paper Sec. V-A).
        - ``judgement``: one draw detects ``true_outcome``.  Detection is
          asymmetric, like real outcome verification: a failed action is
          spotted with the model's accuracy on one obvious option, while
          a step that visibly succeeded is falsely condemned at a tenth
          of the miss rate.  Weak reflectors therefore mostly *miss*
          failures rather than sabotage good steps.
        - ``generation`` and ``completion``: no draw; a completion's
          content is the caller's to sample from :attr:`kernel`.
        """
        prompt_tokens = request.prompt.tokens
        if request.kind == "completion":
            output_tokens = request.output_tokens
        else:
            output_tokens = OUTPUT_TOKENS[request.purpose]
        latency = self.profile.call_latency(prompt_tokens, output_tokens)
        if request.kind == "decision":
            outcome = self.kernel.decide(request.decision, prompt_tokens, self._rng)
            rounds = 1 + outcome.retries
            return InferenceResult(
                prompt_tokens=prompt_tokens,
                output_tokens=output_tokens,
                latency=rounds * latency,
                rounds=rounds,
                decision=Decision(
                    subgoal=outcome.candidate.subgoal,
                    fault=outcome.fault,
                    prompt_tokens=prompt_tokens,
                    output_tokens=output_tokens,
                ),
            )
        if request.kind == "judgement":
            accuracy = self.kernel.probability_correct(_JUDGE_REQUEST, prompt_tokens)
            rate = accuracy if request.true_outcome else (1.0 - accuracy) * 0.1
            return InferenceResult(
                prompt_tokens=prompt_tokens,
                output_tokens=output_tokens,
                latency=latency,
                verdict=self._rng.random() < rate,
            )
        return InferenceResult(
            prompt_tokens=prompt_tokens, output_tokens=output_tokens, latency=latency
        )
