"""Run every table/figure experiment and print the full report.

Usage::

    python -m repro.experiments.suite                   # full report
    REPRO_TRIALS=2 python -m repro.experiments.suite    # quick pass
    REPRO_WORKERS=8 python -m repro.experiments.suite   # parallel trials

Every figure section declares its grid first; the suite sends all of their
jobs through one :func:`~repro.experiments.common.dispatch_jobs` call
(one executor stream, one ledger load under ``REPRO_LEDGER``), slices
the submission-ordered results back per section and renders the
sections in canonical order.  Trials are seeded and aggregated in seed
order, so the report is byte-identical across serial, parallel and
resumed runs apart from its closing ``Report generated in`` line.

Settings: :func:`main` resolves ``REPRO_TRIALS`` / ``REPRO_WORKERS``
once, with :meth:`ExperimentSettings.from_env`, and passes the value to
:func:`run_all`.  Neither knob changes an episode: each section's cells
carry their own system configs, serving modes included, so no shell
setting can move a figure's numbers.  See docs/performance.md for the
knob table.
"""

from __future__ import annotations

import argparse
import time
from itertools import islice

from repro.analysis.tables import render_table1, render_table2
from repro.core.metrics import EpisodeResult, aggregate
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
from repro.experiments.common import (
    ExperimentSettings,
    aggregate_grid,
    dispatch_jobs,
    episode_jobs,
    grid_jobs,
)


#: Figure sections in report order: ``(title, module, episodes)``.  Each
#: module has ``grid()``, ``summarize(...)`` and ``render(...)``; Fig. 6
#: summarizes one raw episode per cell at ``base_seed`` (``episodes``),
#: the others ``n_trials`` aggregated episodes per cell.
_FIGURES = (
    ("Figure 2", fig2_latency, False),
    ("Figure 3", fig3_sensitivity, False),
    ("Figure 4", fig4_local_models, False),
    ("Figure 5", fig5_memory, False),
    ("Figure 6", fig6_tokens, True),
    ("Figure 7", fig7_scalability, False),
    ("Figure 8", fig8_serving, False),
    ("Ablations", ablations, False),
)


def section_block(title: str, body: str, results: list[EpisodeResult]) -> str:
    """One report section, with a cost footer priced from its episodes.

    Token spend is seeded, so the footer is byte-identical across
    serial, parallel and resumed runs.  A section that ran no episodes
    (the static tables) has no footer.
    """
    rule = "=" * 72
    block = f"{rule}\n{title}\n{rule}\n{body}"
    spend = aggregate(results) if results else None
    if spend is not None and spend.deployment_tokens:
        costs = spend.cost_breakdown()
        parts = ", ".join(f"{model} ${cost:.4f}" for model, cost in costs.items())
        block = f"{block}\nLLM serving cost: ${spend.cost_usd:.4f}  ({parts})"
    return block


def run_all(settings: ExperimentSettings) -> str:
    """Render the full report from one streaming wave of every section's jobs."""
    started = time.perf_counter()
    section_jobs = [
        (episode_jobs if episodes else grid_jobs)(module.grid(), settings)
        for _, module, episodes in _FIGURES
    ]
    results = iter(dispatch_jobs([job for jobs in section_jobs for job in jobs], settings))
    blocks = [
        section_block("Table I", render_table1(), []),
        section_block("Table II", render_table2(), []),
    ]
    for (title, module, episodes), jobs in zip(_FIGURES, section_jobs):
        section = list(islice(results, len(jobs)))
        summary = module.summarize(section if episodes else aggregate_grid(section, settings))
        blocks.append(section_block(title, module.render(summary), section))
    elapsed = time.perf_counter() - started
    return "\n\n".join(blocks) + f"\nReport generated in {elapsed:.1f}s wall"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.parse_args(argv)
    print(run_all(ExperimentSettings.from_env()))


if __name__ == "__main__":
    main()
