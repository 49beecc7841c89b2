"""Benchmark configuration.

Each benchmark regenerates one paper table/figure and prints the rows or
series the paper reports.  The ``settings`` fixture is the benchmarks'
entry point: ``ExperimentSettings.from_env`` with trial counts defaulting
to 2 per cell (fast regeneration); set ``REPRO_TRIALS`` for tighter
confidence, e.g.::

    REPRO_TRIALS=8 pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.experiments.common import ExperimentSettings

BENCH_DEFAULT_TRIALS = 2


@pytest.fixture
def settings() -> ExperimentSettings:
    return ExperimentSettings.from_env(n_trials=BENCH_DEFAULT_TRIALS)


def emit(title: str, body: str) -> None:
    """Print a rendered experiment block (visible with ``pytest -s``)."""
    rule = "=" * 72
    print(f"\n{rule}\n{title}\n{rule}\n{body}\n")
