"""Deployment-level LLM optimizations (paper Recommendation 1).

The paper suggests improving planning/communication latency via efficient
LLM deployment: request batching, weight quantization (AWQ), and
hardware-friendly runtimes (MLC-LLM).  Each option transforms an
:class:`~repro.llm.profiles.LLMProfile` into an *effective* profile, so the
rest of the stack is oblivious to how the model is served.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.llm.profiles import LLMProfile

#: Calibrated effect constants.  AWQ 4-bit roughly doubles decode
#: throughput on memory-bound autoregressive decoding at a small quality
#: cost; MLC-style compiled runtimes speed decode without quality impact.
AWQ_DECODE_SPEEDUP = 1.9
AWQ_PREFILL_SPEEDUP = 1.25
AWQ_REASONING_RETENTION = 0.985
MLC_DECODE_SPEEDUP = 1.45
MLC_OVERHEAD_FACTOR = 0.7
#: How many requests one continuous-engine batch admits.
DEFAULT_OCCUPANCY_CAP = 8


@dataclass(frozen=True)
class DeploymentOptions:
    """How a model is served.

    ``quantization`` currently supports ``"awq"``; ``runtime`` supports
    ``"mlc"``.  Batching needs no option: the inference scheduler
    (:mod:`repro.llm.scheduler`) batches whatever a phase exposes, and
    :meth:`batched_call_latency` prices the batch.
    """

    quantization: str = ""  # "" | "awq"
    runtime: str = ""  # "" | "mlc"

    def __post_init__(self) -> None:
        if self.quantization not in ("", "awq"):
            raise ValueError(f"unsupported quantization: {self.quantization!r}")
        if self.runtime not in ("", "mlc"):
            raise ValueError(f"unsupported runtime: {self.runtime!r}")

    def effective_profile(self, profile: LLMProfile) -> LLMProfile:
        """Apply quantization/runtime transforms to ``profile``."""
        result = profile
        if self.quantization == "awq":
            if profile.deployment != "local":
                raise ValueError("AWQ quantization applies to local models only")
            result = result.with_(
                name=f"{result.name}+awq",
                decode_tps=result.decode_tps * AWQ_DECODE_SPEEDUP,
                prefill_tps=result.prefill_tps * AWQ_PREFILL_SPEEDUP,
                reasoning=result.reasoning * AWQ_REASONING_RETENTION,
            )
        if self.runtime == "mlc":
            if profile.deployment != "local":
                raise ValueError("MLC runtime applies to local models only")
            result = result.with_(
                name=f"{result.name}+mlc",
                decode_tps=result.decode_tps * MLC_DECODE_SPEEDUP,
                overhead_s=result.overhead_s * MLC_OVERHEAD_FACTOR,
            )
        return result

    def batched_call_latency(
        self,
        profile: LLMProfile,
        prompt_tokens_per_request: list[int],
        output_tokens_per_request: list[int],
    ) -> float:
        """Latency of serving the given requests as one batch.

        The batch pays overhead once, prefills all prompts, and decodes for
        as long as the longest output, with a mild per-extra-request decode
        penalty (batched decode keeps the GPU memory-bandwidth bound).

        ``profile`` is used as-is: pass the *effective* profile (a
        ``SimulatedLLM``'s ``profile`` attribute already carries the
        quantization/runtime transforms — re-applying them here would
        double-count the speedups).  A batch of one request costs exactly
        :meth:`~repro.llm.profiles.LLMProfile.call_latency`.
        """
        if len(prompt_tokens_per_request) != len(output_tokens_per_request):
            raise ValueError("prompt/output request lists must align")
        if not prompt_tokens_per_request:
            return 0.0
        n_requests = len(prompt_tokens_per_request)
        decode_penalty = 1.0 + 0.08 * (n_requests - 1)
        prefill = sum(prompt_tokens_per_request) / profile.prefill_tps
        decode = (
            max(output_tokens_per_request) * decode_penalty / profile.decode_tps
        )
        return profile.overhead_s + prefill + decode
