"""Fleet dispatch: pipelined whole-sweep wave vs per-cell barriers.

The grid helpers used to drain the worker pool at every cell boundary:
a cell's stragglers idled every worker that had finished the light
trials around them.  The pipelined dispatch (one
:func:`~repro.core.fleet.dispatch` call over the whole sweep, which
``measure_grid``/``episode_grid`` now ride) keeps the *whole sweep* in
flight at once, so the pool's tail is one straggler long instead of one
per cell.  Both arms go through ``dispatch``: the barriered reference
makes one call per cell.

The sweep here is shaped like the worst honest case: one heavy cell
(two 0.5 s episodes) buried in light cells (0.1 s episodes), dispatched
through the synthetic sleep runner (:mod:`repro.core.synthetic`) so the
measured signal is pure scheduling, not episode compute — and, because
sleeping jobs are not CPU-bound, a 4-worker pool runs truly
concurrently even on a 2-core CI machine.

Contracts:

- **equivalence** — submission-order reassembly makes the pipelined
  results byte-identical to the barriered (and serial) ones;
- **speed** — the pipelined wave must hold a >= 1.3x speedup over the
  barriered reference and stay within 20 % of the committed baseline in
  ``benchmarks/baselines/BENCH_fleet.json``.

Emits ``BENCH_fleet.json`` for CI artifacts.
"""

from __future__ import annotations

import json
import pickle
import time
from pathlib import Path

from conftest import emit

from repro.core.executor import ParallelExecutor, TrialJob
from repro.core.fleet import dispatch
from repro.core.synthetic import sleep_runner, synthetic_job

ROUNDS = 2
WORKERS = 4
JOBS_PER_CELL = 2

HEAVY_SECONDS = 0.5
LIGHT_SECONDS = 0.1
LIGHT_CELLS = 8

SPEEDUP_FLOOR = 1.3
BASELINE_TOLERANCE = 0.8

BASELINE_PATH = Path(__file__).parent / "baselines" / "BENCH_fleet.json"
OUTPUT_PATH = Path("BENCH_fleet.json")


def _write_output(fields: dict) -> None:
    OUTPUT_PATH.write_text(json.dumps(fields, indent=2) + "\n")


def _baseline(key: str):
    if not BASELINE_PATH.exists():
        return None
    return json.loads(BASELINE_PATH.read_text()).get(key)


def _grid() -> list[list[TrialJob]]:
    """One heavy straggler cell followed by a tail of light cells."""
    cells = [
        [
            synthetic_job(name="straggler", seed=seed, duration=HEAVY_SECONDS)
            for seed in range(JOBS_PER_CELL)
        ]
    ]
    for cell in range(LIGHT_CELLS):
        cells.append(
            [
                synthetic_job(
                    name=f"light-{cell}", seed=seed, duration=LIGHT_SECONDS
                )
                for seed in range(JOBS_PER_CELL)
            ]
        )
    return cells


def _barriered(cells, executor):
    """The pre-fleet reference: one dispatch per cell, a barrier between."""
    results = []
    for cell in cells:
        results.extend(dispatch(cell, executor))
    return results


def _pipelined(cells, executor):
    """One streaming wave over the flattened sweep (what measure_grid does)."""
    return dispatch([job for cell in cells for job in cell], executor)


def test_bench_fleet_pipelining(benchmark):
    cells = _grid()
    with ParallelExecutor(max_workers=WORKERS, job_runner=sleep_runner) as executor:
        # Warm the pool so neither mode pays worker fork-time.
        dispatch([synthetic_job(name="warmup", duration=0.0)], executor)

        reference = _barriered(cells, executor)
        pipelined = _pipelined(cells, executor)
        assert pickle.dumps(pipelined) == pickle.dumps(reference)

        barriered_seconds = []
        pipelined_seconds = []
        for _round in range(ROUNDS):
            started = time.perf_counter()
            barriered_results = _barriered(cells, executor)
            barriered_seconds.append(time.perf_counter() - started)
            started = time.perf_counter()
            pipelined_results = _pipelined(cells, executor)
            pipelined_seconds.append(time.perf_counter() - started)
            assert pickle.dumps(barriered_results) == pickle.dumps(reference)
            assert pickle.dumps(pipelined_results) == pickle.dumps(reference)

        benchmark.pedantic(
            _pipelined, args=(cells, executor), rounds=1, iterations=1
        )

    barriered_best = min(barriered_seconds)
    pipelined_best = min(pipelined_seconds)
    speedup = barriered_best / max(1e-9, pipelined_best)

    baseline_speedup = _baseline("speedup")

    total_jobs = sum(len(cell) for cell in cells)
    _write_output(
        {
            "grid_cells": len(cells),
            "jobs": total_jobs,
            "workers": WORKERS,
            "rounds": ROUNDS,
            "barriered_seconds": barriered_best,
            "pipelined_seconds": pipelined_best,
            "speedup": round(speedup, 3),
            "baseline_speedup": baseline_speedup,
            "byte_identical": True,
        }
    )

    body = (
        f"sweep: {len(cells)} cells x {JOBS_PER_CELL} jobs "
        f"(1 straggler cell @ {HEAVY_SECONDS}s, {LIGHT_CELLS} light @ "
        f"{LIGHT_SECONDS}s), {WORKERS} workers, min of {ROUNDS} rounds\n"
        f"barriered: {barriered_best:5.2f}s   (per-cell batches: the pool "
        f"drains at every cell boundary)\n"
        f"pipelined: {pipelined_best:5.2f}s   (one streaming wave across the "
        f"whole sweep)\n"
        f"speedup:   {speedup:5.2f}x   (results byte-identical, submission "
        f"order preserved)\n"
        f"baseline:  {baseline_speedup}x committed, "
        f"gate at {BASELINE_TOLERANCE:.0%} of it"
    )
    emit("Fleet dispatch (per-cell barriers vs pipelined wave)", body)

    assert speedup >= SPEEDUP_FLOOR, (
        f"pipelined dispatch speedup {speedup:.2f}x below the "
        f"{SPEEDUP_FLOOR}x floor"
    )
    if baseline_speedup is not None:
        floor = BASELINE_TOLERANCE * baseline_speedup
        assert speedup >= floor, (
            f"pipelined dispatch speedup {speedup:.2f}x regressed >20% "
            f"against the committed baseline {baseline_speedup}x "
            f"(gate: {floor:.2f}x)"
        )
