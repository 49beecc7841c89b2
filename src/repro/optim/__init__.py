"""Config transforms for the paper's optimization recommendations (Sec. IV-VI)."""

from repro.optim.recommendations import (
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
