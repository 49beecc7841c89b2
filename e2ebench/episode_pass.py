"""One pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass pays what a
figure run pays: interpreter start, imports, cold caches.  The pass

1. strips every ``REPRO_*`` variable before ``repro`` is imported, so
   stray knobs cannot change what is measured, and starts sampling host
   speed (:mod:`speed`);
2. runs the workload's grid once through ``measure_grid``.  Set-up ends
   at the first dispatch: entry into ``SerialExecutor.run_stream``, or
   the return of the first pool submit, which forks the workers;
3. re-runs the same grid against a completed ledger
   :data:`RESUME_REPEATS` times.  Suite-sweep's ledger is the one its pass wrote; the serial
   workloads' ledger is written from their results, outside any timing;
4. prints one JSON object on its last stdout line.

Usage: ``python3 e2ebench/episode_pass.py --workload NAME --seed N
--launched T [--trace] [--trials N] [--out DIR]``, where ``T`` is the
``time.monotonic()`` reading taken just before the interpreter started.
"""

from __future__ import annotations

import os
import sys
import time

for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]
_STARTED = time.monotonic()

import speed  # noqa: E402

SAMPLER = speed.SpeedSampler()
SAMPLER.start()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import multiprocessing.util  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from concurrent import futures  # noqa: E402
from pathlib import Path  # noqa: E402

import probes  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Timed re-runs of the grid against the completed ledger per pass;
#: ``resume_s`` is their median.
RESUME_REPEATS = 5


class DispatchHook:
    """Marks the first dispatch and collects the results it streams.

    Installed in every pass, traced or not: it costs one clock read per
    dispatch and one list append per episode.
    """

    def __init__(self, executor_cls: type, parallel: bool) -> None:
        self.first_dispatch: float | None = None
        self.speed_mark: int | None = None
        self.fork_s = 0.0
        self.jobs: list | None = None
        self.results: list = []
        self._restore: list[tuple[type, str, object]] = []
        self._wrap_run_stream(executor_cls, mark=not parallel)
        if parallel:
            self._wrap_pool_submit()

    def _mark(self) -> None:
        self.first_dispatch = time.monotonic()
        self.speed_mark = SAMPLER.mark()

    def _wrap_run_stream(self, executor_cls: type, mark: bool) -> None:
        original = executor_cls.run_stream
        hook = self

        def run_stream(executor, jobs, window=None):
            if mark and hook.first_dispatch is None:
                hook._mark()
            if isinstance(jobs, list):
                hook.jobs = jobs
            for item in original(executor, jobs, window):
                hook.results.append(item[1])
                yield item

        executor_cls.run_stream = run_stream
        self._restore.append((executor_cls, "run_stream", original))

    def _wrap_pool_submit(self) -> None:
        original = futures.ProcessPoolExecutor.submit
        hook = self

        def submit(pool, *args, **kwargs):
            if hook.first_dispatch is not None:
                return original(pool, *args, **kwargs)
            start = time.monotonic()
            future = original(pool, *args, **kwargs)
            hook._mark()
            hook.fork_s = hook.first_dispatch - start
            return future

        futures.ProcessPoolExecutor.submit = submit
        self._restore.append((futures.ProcessPoolExecutor, "submit", original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)


# ---------------------------------------------------------------------- #
# Pool workers (suite-sweep)
# ---------------------------------------------------------------------- #


def _worker_started(scratch: Path, tracer: probes.Tracer | None, sampler) -> None:
    """Runs in each forked pool worker before it takes work."""
    sampler.reset()
    sampler.start()
    if tracer is not None:
        tracer.reset_in_child()
    multiprocessing.util.Finalize(
        None, _worker_exiting, args=(scratch, tracer, sampler), exitpriority=100
    )


def _worker_exiting(scratch: Path, tracer: probes.Tracer | None, sampler) -> None:
    sampler.stop()
    totals = {
        "speed": list(sampler.times),
        "trace": tracer.summary() if tracer is not None else None,
    }
    (scratch / f"worker-{os.getpid()}.json").write_text(json.dumps(totals))


def _wait_for_workers(timeout: float) -> None:
    """Reap the pool's workers: their usage then reaches RUSAGE_CHILDREN."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise TimeoutError("pool workers did not exit")
        time.sleep(0.01)


def _collect_workers(scratch: Path, tracer: probes.Tracer | None) -> list[float | None]:
    """Each reporting worker's speed, from the workers' files."""
    speeds = []
    for path in sorted(scratch.glob("worker-*.json")):
        totals = json.loads(path.read_text())
        speeds.append(speed.speed(totals["speed"]))
        if tracer is not None:
            tracer.merge(totals["trace"])
    return speeds


# ---------------------------------------------------------------------- #
# The pass
# ---------------------------------------------------------------------- #


def _seed_ledger(path: Path, jobs: list, results: list) -> None:
    """Write a completed ledger for the grid the pass just ran."""
    from repro.core.fleet import JobLedger, job_fingerprint

    ledger = JobLedger(path, flush_seconds=3600.0)
    for job, result in zip(jobs, results):
        ledger.append_done(job_fingerprint(job), job, result, shard=0)
    ledger.flush()


def run_pass(args: argparse.Namespace) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    trials = args.trials or workload.trials
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    import_start = time.monotonic()
    import repro.envs  # noqa: F401  (every Environment subclass the probes wrap)
    from repro.core.executor import (
        ParallelExecutor,
        SerialExecutor,
        default_worker_count,
        shutdown_shared_executors,
    )
    from repro.core.fleet import knob_fingerprint
    from repro.experiments.common import ExperimentSettings, measure_grid

    imported = time.monotonic()

    workers = default_worker_count()
    settings = ExperimentSettings(
        n_trials=trials,
        base_seed=args.seed,
        executor="parallel" if workload.sweep else "serial",
        max_workers=workers if workload.sweep else 1,
    )
    cells = workloads.build_cells(workload)
    scratch = Path(tempfile.mkdtemp(prefix="pass-", dir=out_dir))
    ledger_path = scratch / "ledger.jsonl"

    tracer = uninstall_probes = None
    if args.trace:
        tracer = probes.Tracer()
        uninstall_probes = probes.install(tracer)
    hook = DispatchHook(
        ParallelExecutor if workload.sweep else SerialExecutor, parallel=workload.sweep
    )
    if workload.sweep:
        multiprocessing.util.register_after_fork(
            SAMPLER, functools.partial(_worker_started, scratch, tracer)
        )
        os.environ["REPRO_LEDGER"] = str(ledger_path)

    record: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "trials": trials,
        "traced": bool(args.trace),
        "expected_episodes": len(cells) * trials,
        "nproc": workers,
        "knobs": knob_fingerprint(),
    }
    try:
        frame = tracer.enter("unprobed", "pass") if tracer else None
        aggregates = measure_grid(cells, settings)
        finished = time.monotonic()
        pass_mark = SAMPLER.mark()
        if tracer:
            tracer.exit(frame)
        results = hook.results
        record.update(
            digest=workloads.digest(aggregates),
            episodes=len(results),
            sim_steps=sum(result.steps for result in results),
            llm_calls=sum(result.llm_calls for result in results),
            messages_sent=sum(result.messages_sent for result in results),
            setup_s=hook.first_dispatch - args.launched,
            wall_s=finished - hook.first_dispatch,
            setup={
                "interpreter_s": _STARTED - args.launched,
                "import_s": imported - import_start,
                "dispatch_s": hook.first_dispatch - imported,
                "fork_s": hook.fork_s,
            },
        )

        if not workload.sweep:
            if tracer:
                tracer.enabled = False
            _seed_ledger(ledger_path, hook.jobs, results)
            if tracer:
                tracer.enabled = True
            os.environ["REPRO_LEDGER"] = str(ledger_path)
        resume_times = []
        resumed_digests = set()
        dispatched = len(hook.results)
        resume_mark = SAMPLER.mark()
        for _ in range(RESUME_REPEATS):
            frame = tracer.enter("unprobed", "resume") if tracer else None
            start = time.monotonic()
            resumed = measure_grid(cells, settings)
            resume_times.append(time.monotonic() - start)
            if tracer:
                tracer.exit(frame)
            resumed_digests.add(workloads.digest(resumed))
        record.update(
            resume_s=statistics.median(resume_times),
            resume_matches=resumed_digests == {record["digest"]},
            resume_dispatched=len(hook.results) - dispatched,
        )
        times = SAMPLER.times
        process_speed = {
            "setup": speed.speed(times[: hook.speed_mark]),
            "pass": speed.speed(times[hook.speed_mark : pass_mark]),
            "resume": speed.speed(times[resume_mark:]),
        }
    except Exception:
        record.update(error=traceback.format_exc(), episodes=len(hook.results))
    finally:
        os.environ.pop("REPRO_LEDGER", None)
        hook.uninstall()
        if uninstall_probes:
            uninstall_probes()
        shutdown_shared_executors()

    _wait_for_workers(timeout=30.0)
    SAMPLER.stop()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["worker_rss_mb"] = 0.0
    if workload.sweep:
        record["worker_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        worker_speeds = _collect_workers(scratch, tracer)
        record["worker_speeds"] = worker_speeds
        record["workers_reported"] = len(worker_speeds)
        if record["workers_reported"] != workers:
            # The pass's speed would then come from part of its workers.
            record.setdefault(
                "error", f"{record['workers_reported']} of {workers} pool workers reported"
            )
        if "error" not in record:
            # The workers do the pass's work, each at its own vCPU's speed,
            # and their throughputs add; the parent mostly waits.  A worker
            # with no probe lived under one interval and did no measurable
            # share of the work.
            process_speed["pass"] = statistics.fmean(
                value for value in worker_speeds if value is not None
            )
    if "error" not in record:
        overall = speed.speed(SAMPLER.times)
        record["speed"] = {
            phase: value if value is not None else overall
            for phase, value in process_speed.items()
        }
    if tracer:
        record["trace"] = tracer.summary()
        record["spans"] = len(tracer.spans)
        tracer.write_spans(out_dir / "trace" / f"{workload.name}.spans.jsonl")
    shutil.rmtree(scratch, ignore_errors=True)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trials", type=int, default=0, help="override (self-test only)")
    parser.add_argument("--out", default=str(ROOT / ".e2ebench"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    record = run_pass(args)
    print(json.dumps(record, sort_keys=True))
    return 1 if "error" in record else 0


if __name__ == "__main__":
    sys.exit(main())
