"""Typed request/response envelopes for module-to-LLM inference calls.

An :class:`InferenceRequest` describes one call as data: what is being
asked (kind, purpose, prompt, decision candidates) *and* how its cost
must be attributed (module, phase, agent, step).  Modules submit it to
the scheduler (:mod:`repro.llm.scheduler`), which owns dispatch, clock
charging and metric recording uniformly, and which hands it to the
issuing agent's :class:`~repro.llm.simulated.SimulatedLLM`.

The four request kinds mirror the call shapes the modules make:

- ``decision`` — choose one candidate (planning);
  carries a :class:`~repro.llm.behavior.DecisionRequest` and yields a
  :class:`~repro.core.types.Decision`.
- ``generation`` — free-form generation (messages, action selection
  text, LLM-driven primitives); yields token/latency accounting only.
- ``judgement`` — binary outcome verification (reflection); yields a
  verdict plus the generation accounting.
- ``completion`` — a latency-and-tokens-only call whose *content* the
  caller samples itself from the behaviour kernel (the joint/refined/
  cluster plans and multi-step planning, where one call covers several
  decisions).  The model prices the call but draws no randomness.

Purposes name what the tokens buy, matching the generation-length table
(:data:`repro.llm.simulated.OUTPUT_TOKENS`): ``plan``, ``message``,
``action_selection``, ``reflection``, ``primitive``.

The scheduler's continuous mode adds nothing to the envelope: a
request's arrival time in the engine queue is the clock position at
submit, tracked by the scheduler, not a field the caller sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.clock import ModuleName
from repro.core.types import Decision
from repro.llm.behavior import DecisionRequest
from repro.llm.prompt import Prompt

#: Request kinds the model serves.
REQUEST_KINDS = ("decision", "generation", "judgement", "completion")

#: Call purposes with calibrated generation lengths (see
#: :data:`repro.llm.simulated.OUTPUT_TOKENS`).
PURPOSES = ("plan", "message", "action_selection", "reflection", "primitive")


@dataclass(frozen=True)
class InferenceRequest:
    """One module-to-LLM call, as data.

    ``module`` / ``phase`` / ``agent`` / ``step`` are the call's
    attribution: the virtual-clock span tag and the token-sample row it
    must produce.  They are part of the request so the scheduler can
    charge it per call, or re-attribute its latency inside a batch,
    without asking the caller anything.  ``purpose`` must be one of
    :data:`PURPOSES`.
    """

    kind: str
    purpose: str
    prompt: Prompt
    module: ModuleName
    phase: str
    agent: str
    step: int
    #: Candidate set for ``decision`` requests.
    decision: DecisionRequest | None = None
    #: Ground truth a ``judgement`` request tries to recover.
    true_outcome: bool = False
    #: Output-length override for ``completion`` requests (joint plans
    #: emit one subgoal per covered agent, multi-step plans one per
    #: horizon step — neither matches the per-purpose default).
    output_tokens: int | None = None
    #: The call is inherently serial: its issuance depends on the result
    #: of the caller's previous call in the same phase (e.g. the
    #: LLM-primitive chain, where primitive ``i+1`` is only attempted if
    #: ``i`` came out right).  Batched serving must never fold such a
    #: chain into one batch; the scheduler charges these per-call.
    sequential: bool = False

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise ValueError(f"kind must be one of {REQUEST_KINDS}, got {self.kind!r}")
        if self.purpose not in PURPOSES:
            raise ValueError(f"purpose must be one of {PURPOSES}, got {self.purpose!r}")
        if self.kind == "decision" and self.decision is None:
            raise ValueError("decision requests need a DecisionRequest")
        if self.kind == "completion" and self.output_tokens is None:
            raise ValueError("completion requests need an output_tokens override")


@dataclass(frozen=True)
class InferenceResult:
    """What serving one :class:`InferenceRequest` produced.

    ``latency`` is the *per-call* modeled latency (format-retry rounds
    included); when the scheduler dispatches the request inside a batch
    it charges the clock with the batch's shared latency instead, and
    this field remains the unbatched reference cost.  ``rounds`` is
    ``1 + retries``: the extra round-trips a malformed output forced.
    """

    prompt_tokens: int
    output_tokens: int
    latency: float
    rounds: int = 1
    #: Present on ``decision`` results.
    decision: Decision | None = None
    #: Present on ``judgement`` results.
    verdict: bool | None = None
