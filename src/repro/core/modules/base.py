"""Shared module machinery: the per-agent execution context.

Every module receives a :class:`ModuleContext` binding it to one agent's
identity, the episode's virtual clock, the metrics sink, the episode's
inference scheduler, and a dedicated random substream.  LLM-backed
modules describe their calls as
:class:`~repro.llm.requests.InferenceRequest` envelopes and submit them
through the context's scheduler, which advances the clock tagged with
the request's :class:`~repro.core.clock.ModuleName` — what produces the
paper's per-module latency breakdowns; non-LLM costs (actuation,
sensing, memory scans) are still charged by the modules directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.clock import SimClock
from repro.core.metrics import MetricsCollector
from repro.llm.scheduler import InferenceScheduler


@dataclass
class ModuleContext:
    """Bundle of episode-scoped services handed to each module."""

    agent: str
    clock: SimClock
    metrics: MetricsCollector
    rng: np.random.Generator
    #: The episode's serving layer.  Paradigm loops pass their shared
    #: scheduler so cross-agent requests can batch.
    scheduler: InferenceScheduler
    #: Current macro step, set as the agent perceives at the step's start.
    step: int = 0
