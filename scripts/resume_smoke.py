"""Crash/resume drill for the checkpoint ledger (CI gate).

Two phases, both with real episodes and the default flush window:

1. **Injected crash** — a sweep whose job list repeats every job dies
   on its third distinct episode (the runner raises), then restarts
   against the same ledger with the fault cleared.  Its first two jobs
   are raw episodes flagged ``prompt_series`` (Fig. 6's kind), so the
   ledger must restore their series too.
2. **SIGKILL** — a child interpreter runs a sweep through
   ``dispatch(jobs, executor, JobLedger(path))``; the parent SIGKILLs
   it once the ledger holds a complete line and before the sweep ends
   (a child that finishes first fails the drill), then restarts the
   sweep in-process.

Each restart must execute exactly the distinct episodes the ledger
lacks, once each (the rest are restored, not re-run), and its
aggregates must be byte-identical to an uninterrupted serial run.  The
injected-crash restart must also return every result ``pickle``-equal
to the uninterrupted run's, series included: aggregates carry no
series.

Usage::

    PYTHONPATH=src python scripts/resume_smoke.py

The script re-invokes itself with ``--sweep <ledger>`` for the child.
Exits non-zero (with a diagnostic) on any violation.
"""

from __future__ import annotations

import argparse
import pickle
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.errors import TrialExecutionError  # noqa: E402
from repro.core.executor import SerialExecutor, run_trial_job  # noqa: E402
from repro.core.fleet import JobLedger, dispatch, job_fingerprint  # noqa: E402
from repro.core.metrics import aggregate  # noqa: E402
from repro.core.runner import trial_jobs  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    ExperimentSettings,
    GridCell,
    episode_jobs,
)
from repro.workloads import get_workload  # noqa: E402

N_TRIALS = 4
#: Raw-episode jobs (flagged ``prompt_series``) in the injected-crash
#: phase; roco is a team that talks, so its series has message keys too.
SERIES_SUBJECTS = ("roco", "embodiedgpt")
#: Episodes in the SIGKILL phase: long enough that the first flush
#: (after FLUSH_RECORDS episodes or half a second) lands well before
#: the sweep ends.
KILL_TRIALS = 256
KILL_TIMEOUT_SECONDS = 120.0


def fail(message: str) -> None:
    print(f"resume-smoke: FAIL — {message}")
    raise SystemExit(1)


def sweep_jobs(n_trials: int, base_seed: int):
    config = get_workload("embodiedgpt").config
    return trial_jobs(config, n_trials, difficulty="easy", base_seed=base_seed)


def counted(runner):
    """A serial executor over ``runner``, and the jobs it completed."""
    ran = []

    def run(job):
        result = runner(job)
        ran.append(job)
        return result

    return SerialExecutor(job_runner=run), ran


def check_restart(ledger_path: Path, jobs, uninterrupted, phase: str) -> tuple[int, list]:
    """Restart the sweep; return how many distinct episodes the ledger
    restored, and the restart's results."""
    held = JobLedger(ledger_path).load()
    distinct = list(dict.fromkeys(job_fingerprint(job) for job in jobs))
    lacking = [fingerprint for fingerprint in distinct if fingerprint not in held]
    executor, ran = counted(run_trial_job)
    results = dispatch(jobs, executor, JobLedger(ledger_path))
    if [job_fingerprint(job) for job in ran] != lacking:
        fail(
            f"{phase}: restart ran {len(ran)} episodes; the ledger lacked "
            f"{len(lacking)} of {len(distinct)} distinct jobs, each of which "
            f"must run once, in submission order"
        )
    if pickle.dumps(aggregate(results)) != pickle.dumps(aggregate(uninterrupted)):
        fail(f"{phase}: resumed aggregates are not byte-identical to the serial run")
    return len(distinct) - len(lacking), results


def injected_crash_phase(tmp: Path) -> str:
    cells = [GridCell(config=get_workload(name).config) for name in SERIES_SUBJECTS]
    flagged = episode_jobs(cells, ExperimentSettings(base_seed=77, difficulty="easy"))
    distinct = flagged + sweep_jobs(N_TRIALS, base_seed=77)
    jobs = distinct + distinct[::-1]  # every job twice
    uninterrupted = [run_trial_job(job) for job in jobs]
    if not all(result.prompt_series for result in uninterrupted[: len(flagged)]):
        fail("a raw-episode job flagged prompt_series returned no series")
    crash_job = distinct[len(flagged)]

    def crash_on_job(job):
        if job == crash_job:
            raise RuntimeError(f"injected crash at seed {job.seed}")
        return run_trial_job(job)

    ledger_path = tmp / "crash-ledger.jsonl"
    executor, ran = counted(crash_on_job)
    try:
        dispatch(jobs, executor, JobLedger(ledger_path))
    except TrialExecutionError:
        pass
    else:
        fail("injected crash did not surface")
    if len(ran) != len(flagged):
        fail(f"expected {len(flagged)} episodes before the crash, ran {len(ran)}")
    restored, results = check_restart(ledger_path, jobs, uninterrupted, "injected crash")
    if restored != len(flagged):
        fail(f"injected crash: the ledger restored {restored} episodes, not {len(flagged)}")
    if [pickle.dumps(result) for result in results] != [
        pickle.dumps(result) for result in uninterrupted
    ]:
        fail("injected crash: a resumed result differs from the serial run's")
    return (
        f"crash after {len(flagged)}/{len(distinct)} distinct episodes (the "
        f"{len(flagged)} raw episodes with Fig. 6's series; each job listed twice), "
        f"restart executed {len(distinct) - len(flagged)}; every result, series "
        f"included, equal to the serial run's"
    )


def sigkill_phase(tmp: Path) -> str:
    jobs = sweep_jobs(KILL_TRIALS, base_seed=91)
    uninterrupted = [run_trial_job(job) for job in jobs]
    ledger_path = tmp / "kill-ledger.jsonl"
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--sweep", str(ledger_path)]
    )
    try:
        deadline = time.monotonic() + KILL_TIMEOUT_SECONDS
        while not (ledger_path.exists() and b"\n" in ledger_path.read_bytes()):
            if child.poll() is not None:
                fail(f"sweep child exited ({child.returncode}) before its first flush")
            if time.monotonic() > deadline:
                fail("sweep child wrote no complete ledger line before the timeout")
            time.sleep(0.005)
        child.send_signal(signal.SIGKILL)
        if child.wait() != -signal.SIGKILL:
            fail(f"sweep child exited ({child.returncode}) before it could be killed")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    restored, _ = check_restart(ledger_path, jobs, uninterrupted, "SIGKILL")
    if not 0 < restored < KILL_TRIALS:
        fail(f"SIGKILL: the ledger held {restored}/{KILL_TRIALS} episodes at the kill")
    return (
        f"SIGKILL after {restored}/{KILL_TRIALS} episodes reached the ledger, "
        f"restart executed {KILL_TRIALS - restored}"
    )


def run_sweep(ledger_path: Path) -> None:
    """Child mode: the sweep the parent kills."""
    dispatch(sweep_jobs(KILL_TRIALS, base_seed=91), SerialExecutor(), JobLedger(ledger_path))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweep", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.sweep:
        run_sweep(args.sweep)
        return
    with tempfile.TemporaryDirectory() as tmp:
        crash = injected_crash_phase(Path(tmp))
        kill = sigkill_phase(Path(tmp))
    print(
        f"resume-smoke: OK — {crash}; {kill}; aggregates byte-identical "
        f"to the uninterrupted runs"
    )


if __name__ == "__main__":
    main()
