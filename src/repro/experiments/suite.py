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
resolved run settings.  See docs/performance.md for the full knob
table.
"""

from __future__ import annotations

import argparse
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

from repro.analysis.tables import render_table1, render_table2
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
from repro.experiments.common import ExperimentSettings, metered

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
) -> str:
    started = time.perf_counter()
    with metered() as meter:
        body = runner(settings)
    elapsed = time.perf_counter() - started
    rule = "=" * 72
    block = f"{rule}\n{title}  (generated in {elapsed:.1f}s wall)\n{rule}\n{body}"
    if not meter.empty:
        # Token spend is seeded, so unlike the timing line this footer is
        # byte-identical across serial / parallel / resumed runs.
        block = f"{block}\n{meter.describe()}"
    return block


def run_all(
    settings: ExperimentSettings | None = None,
    concurrent_sections: bool = False,
) -> str:
    """Render the full report, always stitched in canonical section order.

    With ``concurrent_sections`` the independent sections run on a
    thread pool (sections spend their time waiting on trial jobs, which
    the settings' executor may fan out to worker processes); the
    rendered blocks are reassembled in ``_SECTIONS`` order, so the
    report content matches the sequential mode modulo timing lines.
    """
    settings = settings or ExperimentSettings()

    def render(section):
        return _run_section(section[0], section[1], settings)

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
    print(run_all(concurrent_sections=args.concurrent_sections))


if __name__ == "__main__":
    main()
