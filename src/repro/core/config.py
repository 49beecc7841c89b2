"""Configuration dataclasses for embodied agent systems.

A :class:`SystemConfig` is the complete, declarative description of one
benchmarked system: which paradigm drives the loop, which environment it
runs in, which model powers each of the six building-block modules
(``None`` = module absent, reproducing Table II's ✗ entries), and which
optimizations (paper Recommendations) are active.  Every variant the
experiments compare (a Fig. 3 ablation, a Fig. 4 planner, a Fig. 5 memory
window, a recommendation's switch) is a transform of a workload's config
(:meth:`SystemConfig.without`, :meth:`~SystemConfig.with_planner`,
:meth:`~SystemConfig.with_memory`, :meth:`~SystemConfig.with_optimizations`),
never a special case inside the loop code.  A transform is a
:func:`dataclasses.replace` that keeps the workload's ``name``, so a
variant equal to its workload is the same job and runs once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.errors import ConfigurationError

PARADIGMS = ("modular", "centralized", "decentralized", "hybrid")

#: Module names accepted by :meth:`SystemConfig.without`.
ABLATABLE_MODULES = ("sensing", "communication", "memory", "reflection", "execution")

#: Inference serving modes (see :mod:`repro.llm.scheduler`).
SERVE_MODES = ("percall", "batched", "continuous")


@dataclass(frozen=True)
class MemoryConfig:
    """Memory-module settings.

    ``capacity_steps`` is the retention window in macro steps — the x-axis
    of the paper's Fig. 5.  ``dual`` enables the long/short-term split of
    Recommendation 5 (static facts in a long-term store exempt from the
    window and from retrieval-scan cost).
    """

    capacity_steps: int = 30
    dual: bool = False

    def __post_init__(self) -> None:
        if self.capacity_steps < 1:
            raise ValueError(f"capacity_steps must be >= 1: {self.capacity_steps}")


@dataclass(frozen=True)
class OptimizationConfig:
    """Paper-recommendation toggles (all off by default).

    - ``multistep_horizon`` > 1: planning-guided multi-step execution
      (Rec. 7) — one planning call covers that many consecutive subgoals.
    - ``plan_then_comm``: only generate messages the planner deems
      necessary (Rec. 8).
    - ``comm_filter``: drop messages with no novel payload before the LLM
      generation call (Rec. 10).
    - ``hierarchy_cluster_size`` > 0: hierarchical cooperation (Rec. 9) —
      agents planned centrally within clusters of this size, decentrally
      across clusters.
    - ``quantization`` / ``runtime``: local-model serving options (Rec. 1).
    - ``serve_mode``: the system's inference-serving mode, one of
      :data:`SERVE_MODES` (Rec. 1).  ``percall`` serves each request at
      its own clock position; Rec. 1's request batching is ``batched``
      and the continuous-batching engine ``continuous``.  The serving
      grids set it per cell to compare modes in one run.
    - ``overlap``: perception–generation overlap (latency only).  The
      loop reads it only when generation is charged at a flush, so it
      is refused under ``percall``.
    """

    multistep_horizon: int = 1
    plan_then_comm: bool = False
    comm_filter: bool = False
    hierarchy_cluster_size: int = 0
    quantization: str = ""
    runtime: str = ""
    serve_mode: str = "percall"
    overlap: bool = False

    def __post_init__(self) -> None:
        if self.multistep_horizon < 1:
            raise ValueError(
                f"multistep_horizon must be >= 1: {self.multistep_horizon}"
            )
        if self.hierarchy_cluster_size < 0:
            raise ValueError(
                f"hierarchy_cluster_size must be >= 0: {self.hierarchy_cluster_size}"
            )
        if self.serve_mode not in SERVE_MODES:
            raise ValueError(
                f"serve_mode must be one of {SERVE_MODES}: {self.serve_mode!r}"
            )
        if self.overlap and self.serve_mode == "percall":
            raise ValueError(
                "overlap needs a serving mode that charges at a flush "
                "(batched or continuous), not percall"
            )


@dataclass(frozen=True)
class SystemConfig:
    """Declarative description of one embodied agent system."""

    name: str
    paradigm: str
    env_name: str
    planning_model: str
    sensing_model: str | None = None
    communication_model: str | None = None
    memory: MemoryConfig | None = None
    reflection_model: str | None = None
    execution_enabled: bool = True
    default_agents: int = 1
    embodied_type: str = "V"  # V = virtual action, T = tool use, E = physical
    env_params: dict[str, Any] = field(default_factory=dict)
    #: Extra LLM call for low-level action selection (CoELA's third call).
    action_selection_llm: bool = False
    optimizations: OptimizationConfig = field(default_factory=OptimizationConfig)

    def __post_init__(self) -> None:
        if self.paradigm not in PARADIGMS:
            raise ConfigurationError(
                f"paradigm must be one of {PARADIGMS}, got {self.paradigm!r}"
            )
        multi = self.is_multi_agent
        self.check_team_size(self.default_agents)
        # A multi-agent system *without* a communication model is legal:
        # it is exactly the paper's "w/o Communication" ablation (agents
        # coordinate only through the environment).

        # Refuse every flag the loop built for this system would ignore.
        optimizations = self.optimizations
        hierarchy = optimizations.hierarchy_cluster_size > 0
        if hierarchy and not multi:
            raise ConfigurationError(
                f"{self.paradigm} system {self.name!r}: hierarchy_cluster_size "
                "applies to multi-agent paradigms only"
            )
        if optimizations.plan_then_comm and (
            self.paradigm != "decentralized" or hierarchy
        ):
            raise ConfigurationError(
                f"{self.paradigm} system {self.name!r}: plan_then_comm is read "
                "only by the decentralized loop without hierarchy"
            )
        joint = self.paradigm in ("centralized", "hybrid") or hierarchy
        if joint and (optimizations.multistep_horizon > 1 or self.action_selection_llm):
            raise ConfigurationError(
                f"{self.paradigm} system {self.name!r}: the joint planner reads "
                "neither multistep_horizon nor action_selection_llm"
            )

    def check_team_size(self, n_agents: int) -> None:
        """Refuse a team this system cannot run: a multi-agent paradigm
        needs at least two agents, whether declared or set per task."""
        if self.is_multi_agent and n_agents < 2:
            raise ConfigurationError(
                f"{self.paradigm} system {self.name!r} needs >= 2 agents"
            )

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #

    def without(self, module: str) -> "SystemConfig":
        """Ablate one module (the paper's Fig. 3 "w/o X" configurations)."""
        if module not in ABLATABLE_MODULES:
            raise ConfigurationError(
                f"cannot ablate {module!r}; choose from {ABLATABLE_MODULES}"
            )
        if module == "execution":
            return replace(self, execution_enabled=False)
        field_name = "memory" if module == "memory" else f"{module}_model"
        return replace(self, **{field_name: None})

    def with_planner(self, model: str) -> "SystemConfig":
        """Swap the planning (and planning-adjacent) LLM — Fig. 4's sweep.

        Communication and action selection typically ride on the same
        model, so they are swapped together when present.
        """
        changes: dict[str, Any] = {"planning_model": model}
        if self.communication_model is not None:
            changes["communication_model"] = model
        return replace(self, **changes)

    def with_memory(self, **changes: Any) -> "SystemConfig":
        """Change :class:`MemoryConfig` fields — Fig. 5's ``capacity_steps``
        sweep, Rec. 5's ``dual`` store.  A system without memory gets the
        default memory first."""
        return replace(self, memory=replace(self.memory or MemoryConfig(), **changes))

    def with_optimizations(self, **changes: Any) -> "SystemConfig":
        """Change :class:`OptimizationConfig` fields (the paper's Recs.)."""
        return replace(self, optimizations=replace(self.optimizations, **changes))

    # ------------------------------------------------------------------ #
    # Introspection (Table I / II rendering)
    # ------------------------------------------------------------------ #

    def module_flags(self) -> dict[str, bool]:
        """Presence of the six building blocks, for the paradigm tables."""
        return {
            "sensing": self.sensing_model is not None,
            "planning": True,
            "communication": self.communication_model is not None,
            "memory": self.memory is not None,
            "reflection": self.reflection_model is not None,
            "execution": self.execution_enabled,
        }

    @property
    def is_multi_agent(self) -> bool:
        return self.paradigm in ("centralized", "decentralized", "hybrid")
