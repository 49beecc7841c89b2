"""Run every table/figure experiment and print the full report.

Usage::

    python -m repro.experiments.suite                   # full report
    REPRO_TRIALS=2 python -m repro.experiments.suite    # quick pass
    REPRO_WORKERS=8 python -m repro.experiments.suite   # parallel trials
    python -m repro.experiments.suite --concurrent-sections

The output of this module is the source for EXPERIMENTS.md.  Report
content is independent of the execution mode: trials are seeded, results
are aggregated in seed order, and sections are always stitched in
canonical order, so only the per-section timing lines vary between
serial, parallel, and concurrent runs.

Settings: trial count and executor come from ``ExperimentSettings``
defaults, i.e. ``REPRO_TRIALS`` / ``REPRO_WORKERS`` unless a caller
passes explicit settings, and every section's jobs carry the same
resolved run settings.  Concurrent sections share one process, so they
also share the (single-threaded) ``REPRO_PROFILE`` probe — profile
serial runs only.  As the repo's longest run, the CLI entry point uses
the coarse clock (:func:`~repro.experiments.common.sweep_settings`;
every section consumes only finalized aggregates, and totals are
byte-identical) — ``REPRO_CLOCK=span`` forces per-span recording.  See
docs/performance.md for the full knob table.
"""

from __future__ import annotations

import argparse
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

from repro.analysis.tables import render_table1, render_table2
from repro.core.envknobs import bool_knob, int_knob
from repro.experiments import (
    ablations,
    fig2_latency,
    fig3_sensitivity,
    fig4_local_models,
    fig5_memory,
    fig6_tokens,
    fig7_scalability,
    fig8_serving,
)
from repro.core.errors import BudgetExceededError
from repro.core.fleet import budget_scope
from repro.experiments.common import ExperimentSettings, metered, sweep_settings

_SECTIONS = (
    ("Table I", lambda s: render_table1()),
    ("Table II", lambda s: render_table2()),
    ("Figure 2", lambda s: fig2_latency.render(fig2_latency.run(s))),
    ("Figure 3", lambda s: fig3_sensitivity.render(fig3_sensitivity.run(s))),
    ("Figure 4", lambda s: fig4_local_models.render(fig4_local_models.run(s))),
    ("Figure 5", lambda s: fig5_memory.render(fig5_memory.run(s))),
    ("Figure 6", lambda s: fig6_tokens.render(fig6_tokens.run(s))),
    ("Figure 7", lambda s: fig7_scalability.render(fig7_scalability.run(s))),
    ("Figure 8", lambda s: fig8_serving.render(fig8_serving.run(s))),
    ("Ablations", lambda s: ablations.render(ablations.run(s))),
)


def _run_section(
    title: str,
    runner: Callable[[ExperimentSettings], str],
    settings: ExperimentSettings,
    partition: int = 0,
    stopped: list[str] | None = None,
) -> str:
    started = time.perf_counter()
    with metered() as meter:
        if partition > 0:
            # Per-figure budget partitioning: this section's fleet
            # dispatches run under a wave-scoped share of the suite
            # budget, and a trip stops only this section — a runaway
            # figure cannot starve the rest of the report.
            try:
                with budget_scope(partition):
                    body = runner(settings)
            except BudgetExceededError as exc:
                if stopped is not None:
                    stopped.append(title)
                body = (
                    f"[section stopped: its {partition}-token share of "
                    f"REPRO_BUDGET_TOKENS ran out; completed episodes are "
                    f"persisted in the ledger]"
                )
                if exc.report:
                    body = f"{body}\n{exc.report}"
        else:
            body = runner(settings)
    elapsed = time.perf_counter() - started
    rule = "=" * 72
    block = f"{rule}\n{title}  (generated in {elapsed:.1f}s wall)\n{rule}\n{body}"
    if not meter.empty:
        # Token spend is seeded, so unlike the timing line this footer is
        # byte-identical across serial / parallel / resumed runs.
        block = f"{block}\n{meter.describe()}"
    return block


def budget_partition_from_env() -> int:
    """Per-section token share, or 0 when partitioning is off.

    ``REPRO_BUDGET_PARTITION=1`` (with a nonzero ``REPRO_BUDGET_TOKENS``)
    splits the suite budget evenly across the report sections; each
    section then dispatches under a wave-scoped budget of its own, so
    one over-spending figure trips alone instead of draining the shared
    ledger cap before later sections run.
    """
    if not bool_knob("REPRO_BUDGET_PARTITION", default=False):
        return 0
    budget = int_knob("REPRO_BUDGET_TOKENS", 0, minimum=0)
    if not budget:
        return 0
    return max(1, budget // len(_SECTIONS))


def run_all(
    settings: ExperimentSettings | None = None,
    concurrent_sections: bool = False,
    stopped: list[str] | None = None,
) -> str:
    """Render the full report, always stitched in canonical section order.

    With ``concurrent_sections`` the independent sections run on a
    thread pool (sections spend their time waiting on trial jobs, which
    the settings' executor may fan out to worker processes); the
    rendered blocks are reassembled in ``_SECTIONS`` order, so the
    report content matches the sequential mode modulo timing lines.

    ``stopped`` (when provided) collects the titles of sections halted
    by a partitioned budget trip — see :func:`budget_partition_from_env`.
    """
    settings = settings or ExperimentSettings()
    partition = budget_partition_from_env()

    def render(section):
        return _run_section(
            section[0], section[1], settings, partition=partition, stopped=stopped
        )

    if concurrent_sections:
        with ThreadPoolExecutor(max_workers=len(_SECTIONS)) as pool:
            blocks = list(pool.map(render, _SECTIONS))
    else:
        blocks = [render(section) for section in _SECTIONS]
    return "\n\n".join(blocks)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--concurrent-sections",
        action="store_true",
        help="run independent report sections concurrently",
    )
    args = parser.parse_args(argv)
    stopped: list[str] = []
    try:
        print(
            run_all(
                sweep_settings(),
                concurrent_sections=args.concurrent_sections,
                stopped=stopped,
            )
        )
    except BudgetExceededError as exc:
        # Unpartitioned ledger-wide budget: admission stopped cleanly —
        # everything that finished is in the ledger, so a rerun with a
        # raised budget resumes from here.
        print(f"suite stopped: {exc}")
        if exc.report:
            print(exc.report)
        raise SystemExit(2) from None
    if stopped:
        # Partitioned mode: the other sections completed; still exit 2
        # so CI/cron wrappers see the budget trip.
        print(f"suite over budget in: {', '.join(stopped)}")
        raise SystemExit(2)


if __name__ == "__main__":
    main()
