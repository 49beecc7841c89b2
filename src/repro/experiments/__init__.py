"""Per-figure/table experiment harnesses (docs/workloads.md maps each
workload to the figures it feeds)."""

from repro.experiments import (
    ablations,
    fig2_latency,
    fig3_sensitivity,
    fig4_local_models,
    fig5_memory,
    fig6_tokens,
    fig7_scalability,
)
from repro.experiments.common import ExperimentSettings, trials_from_env

__all__ = [
    "ExperimentSettings",
    "ablations",
    "fig2_latency",
    "fig3_sensitivity",
    "fig4_local_models",
    "fig5_memory",
    "fig6_tokens",
    "fig7_scalability",
    "trials_from_env",
]
