"""Apply the paper's optimization recommendations to system configs.

Each helper transforms a :class:`~repro.core.config.SystemConfig` into its
optimized variant, so ablation benchmarks can compare baseline vs
recommendation side by side.  The mapping to the paper:

- Rec. 1  → :func:`with_batching`, :func:`with_quantization`, :func:`with_mlc_runtime`
- Rec. 5  → :func:`with_dual_memory`
- Rec. 7  → :func:`with_multistep_planning`
- Rec. 8  → :func:`with_plan_then_comm`
- Rec. 9  → :func:`with_hierarchy`
- Rec. 10 → :func:`with_comm_filter`
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import MemoryConfig, SystemConfig


def with_multistep_planning(config: SystemConfig, horizon: int = 3) -> SystemConfig:
    """Rec. 7: one planning call guides ``horizon`` consecutive steps."""
    return config.with_optimizations(multistep_horizon=horizon)


def with_plan_then_comm(config: SystemConfig) -> SystemConfig:
    """Rec. 8: communicate only after planning deems it necessary."""
    return config.with_optimizations(plan_then_comm=True)


def with_comm_filter(config: SystemConfig) -> SystemConfig:
    """Rec. 10: suppress messages with no novel payload."""
    return config.with_optimizations(comm_filter=True)


def with_hierarchy(config: SystemConfig, cluster_size: int = 3) -> SystemConfig:
    """Rec. 9: clustered cooperation for multi-agent systems."""
    return config.with_optimizations(hierarchy_cluster_size=cluster_size)


def with_batching(config: SystemConfig) -> SystemConfig:
    """Rec. 1: aggregate per-agent LLM requests into one batch
    (sets the ``batched`` serving mode)."""
    return with_serving(config, "batched")


def with_serving(config: SystemConfig, mode: str) -> SystemConfig:
    """Rec. 1: set the system's inference-serving mode.

    The per-cell control the serving grids (Fig. 8,
    ``benchmarks/bench_serving.py``) use to mix modes in one process.
    """
    return config.with_optimizations(serve_mode=mode)


def with_continuous_serving(config: SystemConfig) -> SystemConfig:
    """Rec. 1: serve through the continuous-batching engine
    (arrival-time queue, in-flight joins, charged queueing delay)."""
    return with_serving(config, "continuous")


def with_quantization(config: SystemConfig) -> SystemConfig:
    """Rec. 1: AWQ 4-bit quantization for locally served models."""
    return config.with_optimizations(quantization="awq")


def with_mlc_runtime(config: SystemConfig) -> SystemConfig:
    """Rec. 1: MLC-style compiled serving runtime for local models."""
    return config.with_optimizations(runtime="mlc")


def with_dual_memory(config: SystemConfig) -> SystemConfig:
    """Rec. 5: long/short-term dual memory structure."""
    base = config.memory or MemoryConfig()
    return replace(
        config,
        name=f"{config.name}-dualmem",
        memory=replace(base, dual=True),
    )
