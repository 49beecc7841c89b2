"""Batched LLM serving: modeled-latency gate for the scheduler (Rec. 1).

Host time is measured end to end by ``e2ebench``; this benchmark gates
the serving layer's *modeled* effect: on a grid of
paradigms that expose phase concurrency, dispatching requests as
occupancy-aware batches must cut the modeled end-to-end latency of the
planning/communication path while leaving every task outcome untouched.
The measured ratio is deterministic (virtual-clock seconds, not wall
time), so the committed baseline in
``benchmarks/baselines/BENCH_serving.json`` is tight: a regression means
the scheduler's batching behaviour changed, not that the machine was
slow.

Gates, mirroring the other benches:

- **equivalence** — success/steps/token/message aggregates must be
  identical between per-call, batched, and continuous serving on every
  cell;
- **modeled speedup** — the LLM-module (planning + communication +
  reflection) latency ratio must hold a >= 1.5x floor and stay within
  20 % of the committed baseline (percall vs batched, exactly the PR 5
  gate — the continuous arm never feeds this ratio, so its presence
  cannot move the golden numbers);
- **continuous occupancy** — the continuous engine merges cross-phase
  requests into per-(profile, deployment) queues, so its occupancy on
  the coela n=8 cell must be >= the batched occupancy, with a nonzero
  mean queue delay showing the engine's default admission cap (8)
  actually costs wait time.

Emits ``BENCH_serving.json`` for CI artifacts; the end-to-end ratio,
per-cell occupancies, and the continuous arm's queueing metrics
(``queue_delay_s`` / ``request_latency_s`` / ``inflight_joins``) are
reported alongside (see docs/performance.md, "Reading BENCH_serving").
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

from conftest import emit

from repro.analysis.report import format_table
from repro.core.clock import LLM_MODULES, MODULE_ORDER
from repro.experiments.common import GridCell, measure_grid
from repro.workloads.registry import get_workload

SPEEDUP_FLOOR = 1.5
BASELINE_TOLERANCE = 0.8

BASELINE_PATH = Path(__file__).parent / "baselines" / "BENCH_serving.json"
OUTPUT_PATH = Path("BENCH_serving.json")

#: Cells with real phase concurrency: decentralized teams and the hybrid
#: feedback round.  (Centralized is occupancy-1 by design — measured in
#: the Fig. 8 experiment, it would only dilute a gate.)
CELLS = (
    ("coela", 8),
    ("dmas", 8),
    ("combo", 6),
    ("hmas", 6),
)

OUTCOME_FIELDS = (
    "success_rate",
    "mean_steps",
    "mean_llm_calls",
    "mean_prompt_tokens",
    "mean_messages_sent",
    "message_usefulness",
    "mean_goal_progress",
)


def _grid(serve_mode: str) -> list[GridCell]:
    return [
        GridCell(
            config=get_workload(name).config.with_optimizations(serve_mode=serve_mode),
            n_agents=n_agents,
        )
        for name, n_agents in CELLS
    ]


def _llm_seconds(aggregate) -> float:
    return sum(
        aggregate.module_seconds.get(module, 0.0)
        for module in MODULE_ORDER
        if module in LLM_MODULES
    )


def test_bench_serving_latency(benchmark, settings):
    serial = replace(settings, executor="serial", max_workers=1)

    started = time.perf_counter()
    percall = measure_grid(_grid("percall"), serial)
    batched = measure_grid(_grid("batched"), serial)
    continuous = measure_grid(_grid("continuous"), serial)
    wall_seconds = time.perf_counter() - started

    # Outcome invariance: serving modes may move latency, nothing else.
    for reference, served in zip(percall, batched):
        for field in OUTCOME_FIELDS:
            assert getattr(served, field) == getattr(reference, field), field
        assert served.mean_batch_occupancy > 1.0
    for reference, served in zip(percall, continuous):
        for field in OUTCOME_FIELDS:
            assert getattr(served, field) == getattr(reference, field), field

    # The grid must expose real concurrency, or the gate gates nothing.
    assert all(aggregate.mean_batch_occupancy >= 2.0 for aggregate in batched)

    # Continuous engine: cross-phase queues can only match or beat the
    # phase-segregated batched occupancy, and on the coela n=8 cell the
    # admission cap must actually make requests wait.
    coela_index = next(index for index, (name, n) in enumerate(CELLS) if name == "coela")
    assert (
        continuous[coela_index].mean_batch_occupancy
        >= batched[coela_index].mean_batch_occupancy
    ), "continuous occupancy fell below batched on coela n=8"
    assert continuous[coela_index].mean_queue_delay > 0.0, (
        "occupancy cap produced no queueing delay on coela n=8"
    )

    percall_llm = sum(_llm_seconds(aggregate) for aggregate in percall)
    batched_llm = sum(_llm_seconds(aggregate) for aggregate in batched)
    llm_speedup = percall_llm / max(1e-9, batched_llm)
    percall_total = sum(aggregate.mean_sim_minutes for aggregate in percall)
    batched_total = sum(aggregate.mean_sim_minutes for aggregate in batched)
    end_to_end_speedup = percall_total / max(1e-9, batched_total)

    benchmark.pedantic(
        measure_grid, args=(_grid("batched"), serial), rounds=1, iterations=1
    )

    baseline_speedup = None
    if BASELINE_PATH.exists():
        baseline_speedup = json.loads(BASELINE_PATH.read_text())["llm_speedup"]

    payload = {
        "grid_cells": len(CELLS),
        "trials_per_cell": serial.n_trials,
        "llm_speedup": round(llm_speedup, 3),
        "end_to_end_speedup": round(end_to_end_speedup, 3),
        "baseline_llm_speedup": baseline_speedup,
        "occupancies": {
            f"{name}(n={n_agents})": round(aggregate.mean_batch_occupancy, 2)
            for (name, n_agents), aggregate in zip(CELLS, batched)
        },
        "continuous": {
            f"{name}(n={n_agents})": {
                "minutes": round(aggregate.mean_sim_minutes, 2),
                "occupancy": round(aggregate.mean_batch_occupancy, 2),
                "queue_delay_s": round(aggregate.mean_queue_delay, 3),
                "request_latency_s": round(aggregate.mean_request_latency, 3),
                "inflight_joins": round(aggregate.mean_inflight_joins, 1),
            }
            for (name, n_agents), aggregate in zip(CELLS, continuous)
        },
        "outcomes_invariant": True,
        "wall_seconds": round(wall_seconds, 2),
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        (
            f"{name}(n={n_agents})",
            f"{_llm_seconds(reference) / 60:.1f}",
            f"{_llm_seconds(served) / 60:.1f}",
            f"{reference.mean_sim_minutes:.1f}",
            f"{served.mean_sim_minutes:.1f}",
            f"{engine.mean_sim_minutes:.1f}",
            f"{served.mean_batch_occupancy:.2f}",
            f"{engine.mean_batch_occupancy:.2f}",
            f"{engine.mean_queue_delay:.1f}",
        )
        for (name, n_agents), reference, served, engine in zip(
            CELLS, percall, batched, continuous
        )
    ]
    body = format_table(
        (
            "cell",
            "LLM percall",
            "LLM batched",
            "e2e percall",
            "e2e batched",
            "e2e contin.",
            "occ batched",
            "occ contin.",
            "queue (s)",
        ),
        rows,
        title="modeled minutes per cell (LLM modules and end-to-end)",
    )
    body += (
        f"\nLLM-path speedup: {llm_speedup:.2f}x   end-to-end: "
        f"{end_to_end_speedup:.2f}x   (outcomes identical on every cell)"
        f"\nbaseline: {baseline_speedup}x committed, gate at "
        f"{BASELINE_TOLERANCE:.0%} of it; floor {SPEEDUP_FLOOR}x"
    )
    emit("Batched serving (scheduler) vs per-call dispatch", body)

    assert llm_speedup >= SPEEDUP_FLOOR, (
        f"serving speedup {llm_speedup:.2f}x below the {SPEEDUP_FLOOR}x floor"
    )
    if baseline_speedup is not None:
        floor = BASELINE_TOLERANCE * baseline_speedup
        assert llm_speedup >= floor, (
            f"serving speedup {llm_speedup:.2f}x regressed >20% against the "
            f"committed baseline {baseline_speedup}x (gate: {floor:.2f}x)"
        )
