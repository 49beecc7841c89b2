"""Multi-process kill-and-steal drill for the fleet ledger (CI gate).

Drill: spawn N real shard processes against ONE ledger on a shared
filesystem, SIGKILL one of them mid-sweep (while it holds live leases),
and require that

1. the surviving shards steal the victim's leased-but-unfinished jobs
   after its leases expire (at least one victim-owned fingerprint is
   completed by a different shard),
2. every job in the sweep ends up with a done record,
3. restoring the full sweep from the ledger yields aggregates
   byte-identical to an uninterrupted serial reference run, and
4. ``python -m repro.core.fleet status`` reports the ledger complete
   (exit code 0).

Unlike the single-process shard tests, the workers here are separate
interpreters contending on the real flock/append/compaction path — the
same failure surface a production multi-host sweep sees.

Usage::

    PYTHONPATH=src python scripts/fleet_drill.py [--shards 3] [--jobs 24]

The script re-invokes itself with ``--worker`` for each shard process.
Exits non-zero (with a diagnostic) on any violation.
"""

from __future__ import annotations

import argparse
import json
import pickle
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.executor import SerialExecutor  # noqa: E402
from repro.core.fleet import (  # noqa: E402
    FleetRunner,
    JobLedger,
    STATUS_COMPLETE,
    job_fingerprint,
    ledger_status,
)
from repro.core.metrics import aggregate  # noqa: E402
from repro.core.synthetic import sleep_runner, synthetic_job  # noqa: E402


def drill_jobs(count: int, duration: float):
    """The deterministic synthetic sweep both parent and workers build."""
    return [
        synthetic_job(name=f"drill-{index}", seed=9000 + index, duration=duration)
        for index in range(count)
    ]


def fail(message: str) -> None:
    print(f"fleet-drill: FAIL — {message}")
    raise SystemExit(1)


# ---------------------------------------------------------------------- #
# Worker mode: one shard process
# ---------------------------------------------------------------------- #


def run_worker(args: argparse.Namespace) -> int:
    ledger = JobLedger(
        Path(args.ledger),
        flush_seconds=args.flush,
        compact_records=args.compact,
    )
    runner = FleetRunner(
        ledger,
        shards=args.shards,
        shard_id=args.shard_id,
        lease_seconds=args.lease,
        poll_seconds=args.poll,
    )
    runner.run_jobs(
        drill_jobs(args.jobs, args.duration),
        SerialExecutor(job_runner=sleep_runner),
    )
    if args.stats:
        Path(args.stats).write_text(
            json.dumps(
                {
                    "shard": args.shard_id,
                    "executed": runner.executed,
                    "bytes_read": ledger.bytes_read,
                    "bytes_appended": ledger.bytes_appended,
                    "loads": ledger.loads,
                    "compactions": ledger.compactions,
                }
            )
        )
    return 0


# ---------------------------------------------------------------------- #
# Parent mode: spawn, kill, verify
# ---------------------------------------------------------------------- #


def spawn_worker(
    args: argparse.Namespace, shard_id: int, ledger: Path, stats: Path
) -> subprocess.Popen:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--worker",
        "--shards",
        str(args.shards),
        "--shard-id",
        str(shard_id),
        "--ledger",
        str(ledger),
        "--jobs",
        str(args.jobs),
        "--duration",
        str(args.duration),
        "--lease",
        str(args.lease),
        "--poll",
        str(args.poll),
        "--flush",
        str(args.flush),
        "--compact",
        str(args.compact),
        "--stats",
        str(stats),
    ]
    return subprocess.Popen(command, cwd=REPO_ROOT)


def await_victim_activity(
    ledger_path: Path, victim: int, deadline: float
) -> None:
    """Block until the victim shard's first record hits the shared file."""
    reader = JobLedger(ledger_path)
    while time.monotonic() < deadline:
        entries = reader.load()
        if any(entry.shard == victim for entry in entries.values()):
            return
        time.sleep(0.02)
    fail(f"victim shard {victim} never wrote a record before the kill window")


def run_parent(args: argparse.Namespace) -> int:
    if args.shards < 3:
        fail(f"drill needs >= 3 shards for a meaningful kill, got {args.shards}")
    jobs = drill_jobs(args.jobs, args.duration)
    reference = aggregate(
        SerialExecutor(job_runner=sleep_runner).run_jobs(jobs)
    )

    prints = [job_fingerprint(job) for job in jobs]
    owners = [int(fp[:16], 16) % args.shards for fp in prints]
    by_owner = {shard: owners.count(shard) for shard in range(args.shards)}
    # Kill the busiest shard so there is real work to steal.
    victim = max(by_owner, key=lambda shard: (by_owner[shard], -shard))
    if by_owner[victim] < 2:
        fail(f"uselessly small victim partition: {by_owner}")

    with tempfile.TemporaryDirectory() as tmp:
        ledger_path = Path(tmp) / "drill-ledger.jsonl"
        stats_paths = [Path(tmp) / f"stats-{i}.json" for i in range(args.shards)]
        workers = [
            spawn_worker(args, shard_id, ledger_path, stats_paths[shard_id])
            for shard_id in range(args.shards)
        ]
        deadline = time.monotonic() + args.timeout
        try:
            await_victim_activity(ledger_path, victim, deadline)
            workers[victim].send_signal(signal.SIGKILL)
            workers[victim].wait()
            for shard_id, worker in enumerate(workers):
                if shard_id == victim:
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    fail("drill timed out waiting for survivors")
                try:
                    code = worker.wait(timeout=remaining)
                except subprocess.TimeoutExpired:
                    fail(f"survivor shard {shard_id} hung past the timeout")
                if code != 0:
                    fail(f"survivor shard {shard_id} exited {code}")
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.kill()
                    worker.wait()

        entries = JobLedger(ledger_path).load()
        missing = [fp for fp in prints if entries.get(fp) is None]
        not_done = [
            fp
            for fp in prints
            if entries.get(fp) is not None and entries[fp].kind != "done"
        ]
        if missing or not_done:
            fail(
                f"{len(missing)} jobs missing and {len(not_done)} not done "
                f"after the sweep"
            )
        stolen = [
            fp
            for fp, owner in zip(prints, owners)
            if owner == victim and entries[fp].shard != victim
        ]
        if not stolen:
            fail(
                f"no victim-owned job was completed by a survivor "
                f"(victim shard {victim} owned {by_owner[victim]} jobs)"
            )

        # Restoring the sweep must execute nothing and reproduce the
        # serial reference byte-for-byte.
        restorer = FleetRunner(JobLedger(ledger_path))
        restored = aggregate(
            restorer.run_jobs(jobs, SerialExecutor(job_runner=sleep_runner))
        )
        if restorer.executed != 0:
            fail(f"restore re-executed {restorer.executed} episodes")
        if pickle.dumps(restored) != pickle.dumps(reference):
            fail("restored aggregates differ from the serial reference run")

        report, code = ledger_status(ledger_path)
        if code != STATUS_COMPLETE:
            fail(f"fleet status exited {code} on a completed ledger:\n{report}")

        survivor_stats = []
        for shard_id, stats_path in enumerate(stats_paths):
            if shard_id == victim or not stats_path.exists():
                continue
            survivor_stats.append(json.loads(stats_path.read_text()))
        executed = {s["shard"]: s["executed"] for s in survivor_stats}
        print(
            f"fleet-drill: OK — {args.shards} shard processes, shard "
            f"{victim} SIGKILLed mid-sweep, survivors stole "
            f"{len(stolen)}/{by_owner[victim]} of its jobs "
            f"(executed per survivor: {executed}), aggregates "
            f"byte-identical, status exit 0"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--shard-id", type=int, default=0)
    parser.add_argument("--ledger", default="")
    parser.add_argument("--jobs", type=int, default=24)
    parser.add_argument("--duration", type=float, default=0.05)
    parser.add_argument("--lease", type=float, default=1.5)
    parser.add_argument("--poll", type=float, default=0.05)
    parser.add_argument("--flush", type=float, default=0.1)
    parser.add_argument("--compact", type=int, default=0)
    parser.add_argument("--stats", default="")
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args(argv)
    if args.worker:
        return run_worker(args)
    return run_parent(args)


if __name__ == "__main__":
    raise SystemExit(main())
