"""Scalability sweep: a compact version of the paper's Fig. 7.

Sweeps team size for the centralized MindAgent and the decentralized
CoELA and prints success and latency side by side, showing the paper's
headline scalability asymmetry: centralized success collapses while its
latency stays mild; decentralized latency explodes.

Usage::

    python examples/scalability_sweep.py [difficulty] [n_trials] [workers]

Without ``n_trials``, ``REPRO_TRIALS`` (else 4) sets the trial count, and
without ``workers``, ``REPRO_WORKERS`` (else 1).  With more than one
worker the per-cell trials run on the process-parallel executor; results
are identical to the serial sweep, only faster.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro import get_workload, run_trials
from repro.analysis.report import format_series
from repro.core.executor import TrialExecutor
from repro.experiments import ExperimentSettings

AGENT_COUNTS = (2, 4, 6, 8, 10)


def sweep(name: str, difficulty: str, n_trials: int, executor: TrialExecutor):
    config = get_workload(name).config
    success, latency = [], []
    for n_agents in AGENT_COUNTS:
        aggregate = run_trials(
            config,
            n_trials=n_trials,
            difficulty=difficulty,
            n_agents=n_agents,
            base_seed=29,
            executor=executor,
        )
        success.append(100.0 * aggregate.success_rate)
        latency.append(aggregate.mean_sim_minutes)
    return success, latency


def main() -> None:
    difficulty = sys.argv[1] if len(sys.argv) > 1 else "medium"
    settings = ExperimentSettings.from_env(n_trials=4)
    n_trials = int(sys.argv[2]) if len(sys.argv) > 2 else settings.n_trials
    if len(sys.argv) > 3:
        workers = int(sys.argv[3])
        settings = replace(
            settings, executor="parallel" if workers > 1 else "serial", max_workers=workers
        )
    executor = settings.make_executor()

    central_success, central_latency = sweep("mindagent", difficulty, n_trials, executor)
    decent_success, decent_latency = sweep("coela", difficulty, n_trials, executor)

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
