"""Simulated LLM substrate: profiles, prompts, behaviour, serving."""

from repro.llm.behavior import BehaviorKernel, DecisionRequest
from repro.llm.deployment import DeploymentOptions
from repro.llm.profiles import LLMProfile, get_profile
from repro.llm.prompt import Prompt, PromptBuilder
from repro.llm.requests import InferenceRequest, InferenceResult
from repro.llm.scheduler import SERVE_MODES, InferenceScheduler
from repro.llm.simulated import OUTPUT_TOKENS, SimulatedLLM
from repro.llm.tokenizer import count_tokens

__all__ = [
    "BehaviorKernel",
    "DecisionRequest",
    "DeploymentOptions",
    "InferenceRequest",
    "InferenceResult",
    "InferenceScheduler",
    "LLMProfile",
    "OUTPUT_TOKENS",
    "Prompt",
    "PromptBuilder",
    "SERVE_MODES",
    "SimulatedLLM",
    "count_tokens",
    "get_profile",
]
