"""Fleet dispatch: pipelined whole-sweep wave vs per-cell barriers.

The grid helpers used to drain the worker pool at every cell boundary:
a cell's stragglers idled every worker that had finished the light
trials around them.  The pipelined dispatch
(:meth:`~repro.core.executor.TrialExecutor.run_stream`, which
``measure_grid``/``episode_grid`` now ride) keeps the *whole sweep* in
flight at once, so the pool's tail is one straggler long instead of one
per cell.

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

A second axis — the **contention arm** — gates the ledger's I/O
complexity instead of wall clock (byte counts are deterministic, so the
gates hold on any machine):

- the incremental tail reader keeps per-poll read volume O(new records),
  not O(history): >= 5x total read reduction vs a full-reload reader on a
  1000-record ledger (committed ``read_reduction`` baseline), with
  per-poll bytes flat as history grows 100 -> 1000;
- four real shard *processes* contending on one pre-grown ledger keep
  per-completed-episode read volume under 1/5 of a single full reload;
- compaction bounds live ledger bytes across a steal-heavy churn of
  superseded leases.

Emits ``BENCH_fleet.json`` (all arms merged) for CI artifacts.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
import time
from pathlib import Path

from conftest import emit

from repro.core.executor import ParallelExecutor, TrialJob
from repro.core.fleet import JobLedger, job_fingerprint
from repro.core.synthetic import sleep_runner, synthetic_job

ROUNDS = 2
WORKERS = 4
JOBS_PER_CELL = 2

HEAVY_SECONDS = 0.5
LIGHT_SECONDS = 0.1
LIGHT_CELLS = 8

SPEEDUP_FLOOR = 1.3
BASELINE_TOLERANCE = 0.8

#: Contention arm: history depth, live polls, and the acceptance gate —
#: the tail reader must cut total read volume >= 5x vs full reloads.
HISTORY_RECORDS = 1000
HISTORY_SMALL = 100
POLLS = 60
READ_REDUCTION_FLOOR = 5.0

#: Multi-process arm: shard processes contending on one grown ledger.
CONTENTION_SHARDS = 4
CONTENTION_JOBS = 40

#: Compaction arm: churn size and the live-bytes bound.
CHURN_JOBS = 120
COMPACT_EVERY = 40
LIVE_BYTES_FRACTION = 0.6

BASELINE_PATH = Path(__file__).parent / "baselines" / "BENCH_fleet.json"
OUTPUT_PATH = Path("BENCH_fleet.json")
DRILL_SCRIPT = Path(__file__).parent.parent / "scripts" / "fleet_drill.py"


def _merge_output(fields: dict) -> None:
    """Fold one arm's fields into the shared ``BENCH_fleet.json``."""
    payload = {}
    if OUTPUT_PATH.exists():
        payload = json.loads(OUTPUT_PATH.read_text())
    payload.update(fields)
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


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
    """The pre-fleet reference: one batch per cell, a barrier between."""
    results = []
    for cell in cells:
        results.extend(executor.run_jobs(cell))
    return results


def _pipelined(cells, executor):
    """One streaming wave over the flattened sweep (what measure_grid does)."""
    return executor.run_jobs([job for cell in cells for job in cell])


def test_bench_fleet_pipelining(benchmark):
    cells = _grid()
    with ParallelExecutor(max_workers=WORKERS, job_runner=sleep_runner) as executor:
        # Warm the pool so neither mode pays worker fork-time.
        executor.run_jobs([synthetic_job(name="warmup", duration=0.0)])

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
    _merge_output(
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


# ---------------------------------------------------------------------- #
# Contention arm: ledger read volume must be O(new records), not
# O(history).  Byte counters make these gates deterministic.
# ---------------------------------------------------------------------- #


def _append_done(writer: JobLedger, name: str, seed: int) -> str:
    job = synthetic_job(name=name, seed=seed)
    fingerprint = job_fingerprint(job)
    writer.append_done(fingerprint, job, sleep_runner(job), shard=0)
    return fingerprint


def _grow_history(path: Path, count: int) -> JobLedger:
    """A ledger pre-grown with ``count`` completed foreign episodes."""
    writer = JobLedger(path)
    for index in range(count):
        _append_done(writer, f"hist-{index}", seed=index)
    return writer


def _polling_bytes(path: Path, history: int) -> tuple[int, int]:
    """(tail, full-reload) bytes read across POLLS live-append polls.

    A full reload of a ledger with no snapshot reads the whole journal,
    so its cost per poll is the journal's size at that poll.
    """
    writer = _grow_history(path, history)
    tail_reader = JobLedger(path)
    tail_reader.load()
    # The initial index build costs one full pass for any reader; the
    # contention signal is what each *subsequent* poll pays.
    tail_reader.bytes_read = 0
    full_bytes = 0
    for poll in range(POLLS):
        _append_done(writer, f"live-{poll}", seed=history + poll)
        tail_reader.load()
        full_bytes += path.stat().st_size
    assert not tail_reader.snap_path.exists()
    assert len(tail_reader.load()) == history + POLLS
    return tail_reader.bytes_read, full_bytes


def test_bench_fleet_contention_read_volume(tmp_path):
    tail_small, _ = _polling_bytes(tmp_path / "small.jsonl", HISTORY_SMALL)
    tail_bytes, full_bytes = _polling_bytes(
        tmp_path / "grown.jsonl", HISTORY_RECORDS
    )
    reduction = full_bytes / max(1, tail_bytes)
    per_poll = tail_bytes / POLLS
    per_poll_small = tail_small / POLLS
    baseline_reduction = _baseline("read_reduction")

    _merge_output(
        {
            "history_records": HISTORY_RECORDS,
            "polls": POLLS,
            "tail_bytes_per_poll": round(per_poll, 1),
            "full_reload_bytes": full_bytes,
            "read_reduction": round(reduction, 1),
            "baseline_read_reduction": baseline_reduction,
        }
    )
    emit(
        "Fleet ledger contention (incremental tail vs full reload)",
        f"history: {HISTORY_RECORDS} records, {POLLS} polls with one "
        f"append each\n"
        f"tail reader:  {tail_bytes:>10d} B read "
        f"({per_poll:.0f} B/poll; {per_poll_small:.0f} B/poll at "
        f"{HISTORY_SMALL}-record history)\n"
        f"full reload:  {full_bytes:>10d} B read\n"
        f"reduction:    {reduction:8.1f}x   (gate >= {READ_REDUCTION_FLOOR}x, "
        f"baseline {baseline_reduction}x at {BASELINE_TOLERANCE:.0%})",
    )

    assert reduction >= READ_REDUCTION_FLOOR, (
        f"tail reader read reduction {reduction:.1f}x below the "
        f"{READ_REDUCTION_FLOOR}x floor at a {HISTORY_RECORDS}-record ledger"
    )
    # O(1) in history: a 10x deeper ledger must not change what one poll
    # costs (2x slack covers record-length jitter, not a complexity slip).
    assert per_poll <= 2 * per_poll_small, (
        f"per-poll read volume grew with history: {per_poll:.0f} B/poll at "
        f"{HISTORY_RECORDS} records vs {per_poll_small:.0f} B/poll at "
        f"{HISTORY_SMALL}"
    )
    if baseline_reduction is not None:
        floor = BASELINE_TOLERANCE * baseline_reduction
        assert reduction >= floor, (
            f"read reduction {reduction:.1f}x regressed >20% against the "
            f"committed baseline {baseline_reduction}x (gate: {floor:.1f}x)"
        )


def test_bench_fleet_multiprocess_contention(tmp_path):
    """4 shard processes on one grown ledger: per-episode reads stay O(1).

    Every worker pays one full pass to build its index; after that each
    poll/steal check must read only the bytes appended since.  The gate
    compares the fleet's *total* read volume per completed episode
    against the cost of a single full reload of the pre-grown history —
    a full-reload reader would pay that price on every poll.
    """
    ledger_path = tmp_path / "contention-ledger.jsonl"
    _grow_history(ledger_path, HISTORY_RECORDS)
    history_bytes = ledger_path.stat().st_size

    stats_paths = [
        tmp_path / f"stats-{shard}.json" for shard in range(CONTENTION_SHARDS)
    ]
    workers = [
        subprocess.Popen(
            [
                sys.executable,
                str(DRILL_SCRIPT),
                "--worker",
                "--shards",
                str(CONTENTION_SHARDS),
                "--shard-id",
                str(shard),
                "--ledger",
                str(ledger_path),
                "--jobs",
                str(CONTENTION_JOBS),
                "--duration",
                "0.01",
                "--lease",
                "1.0",
                "--poll",
                "0.03",
                "--flush",
                "0.05",
                "--stats",
                str(stats_paths[shard]),
            ],
            cwd=DRILL_SCRIPT.parent.parent,
        )
        for shard in range(CONTENTION_SHARDS)
    ]
    for shard, worker in enumerate(workers):
        assert worker.wait(timeout=120) == 0, f"shard {shard} failed"

    stats = [json.loads(path.read_text()) for path in stats_paths]
    total_read = sum(s["bytes_read"] for s in stats)
    episodes = sum(s["executed"] for s in stats)
    assert episodes >= CONTENTION_JOBS
    per_episode = total_read / episodes

    _merge_output(
        {
            "contention_shards": CONTENTION_SHARDS,
            "contention_episodes": episodes,
            "contention_read_bytes_per_episode": round(per_episode, 1),
            "contention_history_bytes": history_bytes,
        }
    )
    emit(
        "Fleet ledger contention (4 shard processes, grown ledger)",
        f"history: {history_bytes} B ({HISTORY_RECORDS} records), "
        f"{CONTENTION_SHARDS} shard processes, {episodes} episodes\n"
        f"reads:   {total_read} B total, {per_episode:.0f} B/episode "
        f"(one full reload costs {history_bytes} B)\n"
        f"gate:    per-episode reads <= history/{READ_REDUCTION_FLOOR:.0f}",
    )
    assert per_episode <= history_bytes / READ_REDUCTION_FLOOR, (
        f"shard processes read {per_episode:.0f} B per episode against a "
        f"{history_bytes} B history — polling is O(history), not O(new)"
    )


def test_bench_fleet_compaction_bounds_ledger(tmp_path):
    """Steal-heavy churn: compaction keeps live bytes bounded.

    Each job leaves two superseded lease records behind (its own claim
    plus a steal), the shape a lease-stealing sweep writes after shard
    churn.  Without compaction the journal retains every dead record;
    with it, live bytes (journal tail + snapshot) must stay well under
    the total appended volume while a fresh reader still recovers every
    completed episode.
    """
    path = tmp_path / "churn.jsonl"
    ledger = JobLedger(path, compact_records=COMPACT_EVERY)
    fingerprints = []
    for index in range(CHURN_JOBS):
        job = synthetic_job(name=f"churn-{index}", seed=index)
        fingerprint = job_fingerprint(job)
        fingerprints.append(fingerprint)
        ledger.append_lease(fingerprint, shard=index % 4, ttl_seconds=60)
        ledger.append_lease(fingerprint, shard=(index + 1) % 4, ttl_seconds=120)
        ledger.append_done(fingerprint, job, sleep_runner(job), shard=(index + 1) % 4)
    ledger.flush()

    appended = ledger.bytes_appended
    live = path.stat().st_size
    snap = ledger.snap_path
    if snap.exists():
        live += snap.stat().st_size
    recovered = JobLedger(path).load()

    _merge_output(
        {
            "churn_jobs": CHURN_JOBS,
            "churn_appended_bytes": appended,
            "churn_live_bytes": live,
            "compactions": ledger.compactions,
        }
    )
    emit(
        "Fleet ledger compaction (steal-heavy churn)",
        f"churn: {CHURN_JOBS} jobs x (2 superseded leases + 1 done), "
        f"compaction every {COMPACT_EVERY} dead records\n"
        f"appended: {appended} B   live: {live} B "
        f"({live / appended:.0%}; gate <= {LIVE_BYTES_FRACTION:.0%})   "
        f"compactions: {ledger.compactions}",
    )
    assert ledger.compactions >= 1, "compaction never fired during churn"
    assert live <= LIVE_BYTES_FRACTION * appended, (
        f"live ledger bytes {live} not bounded: {live / appended:.0%} of the "
        f"{appended} B appended (gate {LIVE_BYTES_FRACTION:.0%})"
    )
    done = [fp for fp in fingerprints if recovered[fp].kind == "done"]
    assert len(done) == CHURN_JOBS, "compaction lost completed episodes"
