"""Optimization strategies from the paper's recommendations (Sec. IV-VI)."""

from repro.optim.hierarchy import HierarchicalLoop, cluster_agents
from repro.optim.recommendations import (
    RECOMMENDATIONS,
    with_batching,
    with_comm_filter,
    with_continuous_serving,
    with_dual_memory,
    with_hierarchy,
    with_mlc_runtime,
    with_multistep_planning,
    with_plan_then_comm,
    with_quantization,
    with_serving,
)

__all__ = [
    "HierarchicalLoop",
    "RECOMMENDATIONS",
    "cluster_agents",
    "with_batching",
    "with_comm_filter",
    "with_continuous_serving",
    "with_dual_memory",
    "with_hierarchy",
    "with_mlc_runtime",
    "with_multistep_planning",
    "with_plan_then_comm",
    "with_quantization",
    "with_serving",
]
