"""Latency profiling helpers over episode results.

Produces the per-module breakdowns (Fig. 2a) and aggregate latency views
(Fig. 2b) from :class:`~repro.core.metrics.EpisodeResult` /
:class:`~repro.core.metrics.AggregateResult` objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.clock import LLM_MODULES, MODULE_ORDER, ModuleName
from repro.core.metrics import AggregateResult


@dataclass(frozen=True)
class LatencyProfile:
    """Per-step module latency profile for one workload."""

    workload: str
    seconds_per_step: float
    module_share: dict[ModuleName, float]  # fractions summing to ~1
    total_minutes: float
    llm_fraction: float

    def share_of(self, module: ModuleName) -> float:
        return self.module_share.get(module, 0.0)


def profile_from_aggregate(result: AggregateResult) -> LatencyProfile:
    breakdown = result.module_breakdown()
    # Summed in MODULE_ORDER, as EpisodeResult.llm_fraction is: the
    # LLM_MODULES frozenset iterates in an order that varies between
    # processes, and the float sum with it.
    llm_fraction = sum(
        breakdown.get(module, 0.0) for module in MODULE_ORDER if module in LLM_MODULES
    )
    return LatencyProfile(
        workload=result.workload,
        seconds_per_step=result.mean_seconds_per_step,
        module_share=breakdown,
        total_minutes=result.mean_sim_minutes,
        llm_fraction=llm_fraction,
    )


def breakdown_rows(profiles: list[LatencyProfile]) -> list[list[str]]:
    """Rows of Fig. 2a's stacked-bar data: per-module percent of step time."""
    rows = []
    for profile in profiles:
        row = [profile.workload, f"{profile.seconds_per_step:.1f}"]
        row.extend(
            f"{100.0 * profile.share_of(module):.1f}%" for module in MODULE_ORDER
        )
        rows.append(row)
    return rows


def mean_llm_fraction(profiles: list[LatencyProfile]) -> float:
    """Suite-average share of latency in LLM modules (paper: 70.2 %)."""
    if not profiles:
        return 0.0
    return sum(profile.llm_fraction for profile in profiles) / len(profiles)
