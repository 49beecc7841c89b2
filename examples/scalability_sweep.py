"""Scalability sweep: a compact version of the paper's Fig. 7.

Sweeps team size for the centralized MindAgent and the decentralized
CoELA and prints success and latency side by side, showing the paper's
headline scalability asymmetry: centralized success collapses while its
latency stays mild; decentralized latency explodes.

Usage::

    python examples/scalability_sweep.py [difficulty]

``REPRO_TRIALS`` (else 4) sets the trial count; ``REPRO_WORKERS`` above 1
runs the sweep on the process-parallel executor.  Results are identical
to the serial sweep, only faster.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro import get_workload
from repro.analysis.report import format_series
from repro.experiments.common import ExperimentSettings, GridCell, measure_grid

AGENT_COUNTS = (2, 4, 6, 8, 10)


def main() -> None:
    difficulty = sys.argv[1] if len(sys.argv) > 1 else "medium"
    settings = replace(
        ExperimentSettings.from_env(n_trials=4), base_seed=29, difficulty=difficulty
    )
    cells = [
        GridCell(config=get_workload(name).config, n_agents=n_agents)
        for name in ("mindagent", "coela")
        for n_agents in AGENT_COUNTS
    ]
    aggregates = measure_grid(cells, settings)
    success = [100.0 * aggregate.success_rate for aggregate in aggregates]
    latency = [aggregate.mean_sim_minutes for aggregate in aggregates]
    split = len(AGENT_COUNTS)
    central_success, decent_success = success[:split], success[split:]
    central_latency, decent_latency = latency[:split], latency[split:]

    print(
        format_series(
            list(AGENT_COUNTS),
            {
                "mindagent (central) %": central_success,
                "coela (decentral) %": decent_success,
            },
            title=f"Success rate vs team size ({difficulty})",
            x_label="agents",
            precision=0,
        )
    )
    print()
    print(
        format_series(
            list(AGENT_COUNTS),
            {
                "mindagent (central) min": central_latency,
                "coela (decentral) min": decent_latency,
            },
            title="End-to-end latency vs team size",
            x_label="agents",
            precision=1,
        )
    )
    central_growth = central_latency[-1] / max(1e-9, central_latency[0])
    decent_growth = decent_latency[-1] / max(1e-9, decent_latency[0])
    print(
        f"\nlatency growth {AGENT_COUNTS[0]}->{AGENT_COUNTS[-1]} agents: "
        f"centralized {central_growth:.1f}x vs decentralized {decent_growth:.1f}x "
        "(paper: linear vs quadratic scaling)"
    )


if __name__ == "__main__":
    main()
