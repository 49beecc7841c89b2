"""Executor engine: serial-vs-parallel speedup on a fig7-style grid.

This benchmark tracks the parallel execution engine itself rather than a
paper figure: it runs the same scalability-flavoured trial grid through
``SerialExecutor`` and ``ParallelExecutor`` and reports the wall-clock
speedup alongside a hard equivalence check (parallel aggregates must be
bit-identical to serial ones — determinism is part of the contract, not
just performance).

Workers default to ``REPRO_WORKERS`` (the ``settings`` fixture's
``max_workers``) when set above 1, else 4; on a multi-core machine a
4-worker run shows >= 2x on this grid.  The speedup floor is only
asserted when the host actually has the cores to deliver it, so
single-core CI runners still exercise correctness.
"""

from __future__ import annotations

import time
from dataclasses import replace

from conftest import emit

from repro.core.executor import default_worker_count
from repro.experiments.common import GridCell, measure_grid
from repro.workloads.registry import get_workload

SUBJECTS = ("mindagent", "coela", "combo")
AGENT_COUNTS = (2, 4, 6, 8)

BENCH_DEFAULT_WORKERS = 4


def _grid() -> list[GridCell]:
    return [
        GridCell(config=get_workload(subject).config, n_agents=n_agents)
        for subject in SUBJECTS
        for n_agents in AGENT_COUNTS
    ]


def test_bench_executor_speedup(benchmark, settings):
    workers = settings.max_workers if settings.max_workers > 1 else BENCH_DEFAULT_WORKERS
    grid = _grid()
    serial_settings = replace(settings, executor="serial", max_workers=1)
    parallel_settings = replace(settings, executor="parallel", max_workers=workers)

    started = time.perf_counter()
    serial_results = measure_grid(grid, serial_settings)
    serial_elapsed = time.perf_counter() - started

    # Warm the shared worker pool outside the timed region so the
    # benchmark measures steady-state dispatch, not process fork cost.
    warmup = replace(parallel_settings, n_trials=1)
    measure_grid(
        [GridCell(config=get_workload("mindagent").config, difficulty="easy")], warmup
    )
    started = time.perf_counter()
    parallel_results = benchmark.pedantic(
        measure_grid, args=(grid, parallel_settings), rounds=1, iterations=1
    )
    parallel_elapsed = time.perf_counter() - started

    # Contract: fan-out must not change a single aggregated number.
    assert parallel_results == serial_results

    speedup = serial_elapsed / max(1e-9, parallel_elapsed)
    cores = default_worker_count()
    emit(
        "Executor (serial vs parallel)",
        f"grid: {len(grid)} cells x {serial_settings.n_trials} trials "
        f"({len(grid) * serial_settings.n_trials} episodes)\n"
        f"serial:   {serial_elapsed:6.2f}s\n"
        f"parallel: {parallel_elapsed:6.2f}s  ({workers} workers, {cores} cores)\n"
        f"speedup:  {speedup:5.2f}x",
    )

    # The >= 2x acceptance floor needs >= 4 usable cores.  Below that
    # (including the 2-worker CI smoke run on shared runners, where
    # wall-clock is too noisy to gate on) the determinism assert above
    # is the contract and the printed speedup is informational.
    usable = min(workers, cores)
    if usable >= 4:
        assert speedup >= 2.0, (
            f"parallel executor speedup {speedup:.2f}x below 2.0x floor "
            f"({workers} workers on {cores} cores)"
        )
