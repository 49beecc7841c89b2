"""Optimization playbook: apply the paper's recommendations one by one.

Takes CoELA (the paper's most-dissected workload) and COMBO (a local-model
system eligible for serving optimizations) and measures each applicable
recommendation against its baseline — the executable version of the
paper's Sec. VIII discussion.

Usage::

    python examples/optimization_playbook.py [n_trials]

Without ``n_trials``, ``REPRO_TRIALS`` (else 5) sets the trial count;
``REPRO_WORKERS`` above 1 runs the trials on the process-parallel
executor, with the same table.
"""

from __future__ import annotations

import sys

from repro import get_workload, run_trials
from repro.analysis.report import format_table
from repro.experiments import ExperimentSettings


def measure(config, n_trials, executor):
    return run_trials(
        config, n_trials=n_trials, difficulty="medium", base_seed=41, executor=executor
    )


def main() -> None:
    settings = ExperimentSettings.from_env(n_trials=5)
    n_trials = int(sys.argv[1]) if len(sys.argv) > 1 else settings.n_trials
    executor = settings.make_executor()
    coela = get_workload("coela").config
    combo = get_workload("combo").config

    cases = [
        ("coela", "baseline", coela),
        ("coela", "rec7 multi-step planning", coela.with_optimizations(multistep_horizon=3)),
        ("coela", "rec8 plan-then-communicate", coela.with_optimizations(plan_then_comm=True)),
        ("coela", "rec10 message filtering", coela.with_optimizations(comm_filter=True)),
        ("coela", "rec5 dual memory", coela.with_memory(dual=True)),
        ("combo", "baseline", combo),
        ("combo", "rec1 AWQ quantization", combo.with_optimizations(quantization="awq")),
        ("combo", "rec1 request batching", combo.with_optimizations(serve_mode="batched")),
    ]

    rows = []
    baselines = {}
    for workload, label, config in cases:
        aggregate = measure(config, n_trials, executor)
        if label == "baseline":
            baselines[workload] = aggregate.mean_sim_minutes
        speedup = baselines[workload] / max(1e-9, aggregate.mean_sim_minutes)
        rows.append(
            [
                workload,
                label,
                f"{aggregate.success_rate:.0%}",
                f"{aggregate.mean_sim_minutes:.1f}",
                f"{speedup:.2f}x",
                f"{aggregate.mean_llm_calls:.0f}",
                f"{aggregate.mean_messages_sent:.0f}",
            ]
        )

    print(
        format_table(
            ["workload", "variant", "success", "total min", "speedup", "LLM calls", "messages"],
            rows,
            title=f"Optimization playbook (medium tasks, {n_trials} trials)",
        )
    )


if __name__ == "__main__":
    main()
