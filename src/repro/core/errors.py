"""Exception types and the fault taxonomy used across the simulator.

The paper characterizes several qualitatively different ways in which an
LLM-driven embodied agent goes wrong: suboptimal plans, infeasible actions,
hallucinated objects, repeated/looping actions, and malformed (format
non-compliant) outputs that force a retry.  ``FaultKind`` enumerates that
taxonomy; the planning and reflection modules use it to drive error
injection and error correction respectively.
"""

from __future__ import annotations

import enum


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError):
    """A system/agent/module configuration is invalid or inconsistent."""


class EnvironmentError_(ReproError):
    """An environment was driven into (or asked for) an invalid state.

    Named with a trailing underscore to avoid shadowing the builtin
    ``EnvironmentError`` alias of :class:`OSError`.
    """


class UnknownWorkloadError(ReproError):
    """Requested workload name is not present in the registry."""


class TrialExecutionError(ReproError):
    """A trial episode failed inside an executor (serial or worker process).

    The message names the failing job (workload, env, seed) so a crash in
    a 1000-cell sweep is attributable without re-running it; the original
    exception rides along as ``__cause__``.
    """


class UnknownModelError(ReproError):
    """Requested LLM/perception model profile does not exist."""


class FaultKind(enum.Enum):
    """Taxonomy of decision faults injected by the simulated LLM.

    Matches the failure modes the paper attributes to LLM-based modules:

    - ``SUBOPTIMAL``: a feasible but inefficient choice (extra steps).
    - ``INFEASIBLE``: an action whose preconditions do not hold.
    - ``HALLUCINATION``: references an object/location that does not exist.
    - ``REPEATED``: re-issues an action already known to have failed.
    - ``FORMAT``: output not parseable; costs a retry round-trip.
    """

    SUBOPTIMAL = "suboptimal"
    INFEASIBLE = "infeasible"
    HALLUCINATION = "hallucination"
    REPEATED = "repeated"
    FORMAT = "format"
