"""Warehouse fleet: centralized vs decentralized vs hybrid coordination.

Runs CMAS (centralized), DMAS (decentralized), and HMAS (hybrid) on the
same boxworld tasks — the three systems the CMAS paper compares and this
paper profiles — and contrasts task performance against system efficiency,
the central trade-off of paper Sec. VI.

Usage::

    python examples/warehouse_fleet.py [difficulty]

``REPRO_TRIALS`` (else 6) sets the trial count; ``REPRO_WORKERS`` above 1
runs the trials on the process-parallel executor, with the same table.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro import get_workload
from repro.analysis.report import format_table
from repro.experiments.common import ExperimentSettings, GridCell, measure_grid


def main() -> None:
    difficulty = sys.argv[1] if len(sys.argv) > 1 else "medium"
    settings = replace(
        ExperimentSettings.from_env(n_trials=6), base_seed=17, difficulty=difficulty
    )
    configs = {name: get_workload(name).config for name in ("cmas", "dmas", "hmas")}
    aggregates = measure_grid([GridCell(config=config) for config in configs.values()], settings)

    rows = [
        [
            name,
            config.paradigm,
            f"{aggregate.success_rate:.0%}",
            f"{aggregate.mean_steps:.1f}",
            f"{aggregate.mean_sim_minutes:.1f}",
            f"{aggregate.mean_seconds_per_step:.1f}",
            f"{aggregate.mean_llm_calls:.0f}",
            f"{aggregate.mean_messages_sent:.0f}",
        ]
        for (name, config), aggregate in zip(configs.items(), aggregates)
    ]

    print(
        format_table(
            [
                "system",
                "paradigm",
                "success",
                "steps",
                "total min",
                "s/step",
                "LLM calls",
                "messages",
            ],
            rows,
            title=f"Boxworld fleet comparison ({difficulty}, {settings.n_trials} trials, 4 arms)",
        )
    )
    print(
        "\nExpected shape (paper Sec. VI): the centralized planner is the "
        "cheapest per step; the decentralized dialogue multiplies LLM calls "
        "and latency; the hybrid sits between, trading a second central "
        "call for worker feedback."
    )


if __name__ == "__main__":
    main()
