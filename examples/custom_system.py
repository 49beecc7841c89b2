"""Build a custom embodied system from scratch with the public API.

Declares a brand-new system (not in the 14-workload suite): a
decentralized three-agent household crew with a local Llama-70B planner,
dual memory, and a quantized serving stack — then benchmarks it against
OLA (the closest suite system) across difficulty tiers.  Demonstrates the
full declarative surface a downstream user composes systems from.

Usage::

    python examples/custom_system.py

``REPRO_TRIALS`` (else 5) sets the trial count; ``REPRO_WORKERS`` above 1
runs the trials on the process-parallel executor, with the same table.
"""

from __future__ import annotations

from dataclasses import replace

from repro import MemoryConfig, OptimizationConfig, SystemConfig, get_workload
from repro.analysis.report import format_table
from repro.experiments.common import ExperimentSettings, GridCell, measure_grid

CUSTOM = SystemConfig(
    name="homecrew-70b",
    paradigm="decentralized",
    env_name="household",
    sensing_model="dino",
    planning_model="llama-3-70b",
    communication_model="llama-3-70b",
    memory=MemoryConfig(capacity_steps=40, dual=True),
    reflection_model="llama-3-70b",
    execution_enabled=True,
    default_agents=3,
    embodied_type="Simulation (V)",
    optimizations=OptimizationConfig(quantization="awq", comm_filter=True),
)


def main() -> None:
    settings = replace(ExperimentSettings.from_env(n_trials=5), base_seed=53)
    systems = (("homecrew-70b (custom)", CUSTOM), ("ola (suite)", get_workload("ola").config))
    grid = [
        (difficulty, label, GridCell(config=config, difficulty=difficulty, n_agents=3))
        for difficulty in ("easy", "medium", "hard")
        for label, config in systems
    ]
    aggregates = measure_grid([cell for _, _, cell in grid], settings)

    rows = [
        [
            difficulty,
            label,
            f"{aggregate.success_rate:.0%}",
            f"{aggregate.mean_steps:.1f}",
            f"{aggregate.mean_sim_minutes:.1f}",
            f"{aggregate.llm_fraction:.0%}",
        ]
        for (difficulty, label, _), aggregate in zip(grid, aggregates)
    ]

    print(
        format_table(
            ["difficulty", "system", "success", "steps", "total min", "LLM share"],
            rows,
            title="Custom system vs suite reference (household, 3 agents)",
        )
    )
    print(
        "\nThe custom crew trades GPT-4's reasoning for a quantized local "
        "70B: cheaper per call, competitive success on easy tiers, and a "
        "growing gap as tasks harden — the paper's Takeaway 3 in one table."
    )


if __name__ == "__main__":
    main()
