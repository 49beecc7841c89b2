"""Trial execution engines: serial and process-parallel episode dispatch.

Every figure in the paper aggregates independent seeded trials, which
makes the trial grid embarrassingly parallel: episodes share no state
(each owns its RNG streams, clock, and environment), so they can run in
worker processes without perturbing determinism.  A
:class:`TrialExecutor` receives picklable :class:`TrialJob` work items
and produces their :class:`~repro.core.metrics.EpisodeResult`\\ s.

One dispatch surface, :meth:`TrialExecutor.run_stream`: it accepts a
(possibly lazy) job iterable and yields ``(index, result)`` pairs **in
completion order**, so a whole sweep shares one stream (no per-cell
barrier drains the pool) and each episode can be checkpointed the
moment it finishes.  :func:`repro.core.fleet.dispatch` is the only code
that turns a job list into **submission-ordered** results: it runs each
distinct job once through this stream and reassembles by position, so
aggregation downstream is bit-identical regardless of which worker
finished first.

``SerialExecutor`` (the default everywhere) runs jobs in-process exactly
as the seed code did; ``ParallelExecutor`` fans them out across a
``concurrent.futures.ProcessPoolExecutor``.  Experiment code obtains its
executor from ``ExperimentSettings.make_executor()``, the one place that
picks one: parallel settings get :func:`shared_pool`, the process's one
pool per worker count, so a suite run or a benchmark that sends several
waves reuses its workers instead of re-forking them.  Executors are
driven from one thread: a suite run is one stream, so neither the pool
nor the pool cache takes a lock.

Contracts:

- **Picklability** — a :class:`TrialJob` is frozen dataclasses of
  primitives all the way down; anything added to configs or tasks must
  stay picklable or parallel dispatch breaks.
- **Byte-identity** — every yielded index names the job it came from,
  so ``dispatch`` returns results in submission order regardless of
  completion order, and parallel aggregates equal serial ones exactly
  (asserted by ``tests/core/test_executor.py`` and
  ``benchmarks/bench_executor.py``).
- **The job is the whole input** — a :class:`TrialJob`'s config (its
  ``optimizations`` included: the serving mode and overlap), task and
  seed decide its episode, so a result depends only on its job, never
  on the worker's environment or when its pool was forked.
  The executor comes from ``ExperimentSettings(executor=, max_workers=)``
  (serial by default; ``ExperimentSettings.from_env()`` reads
  ``REPRO_WORKERS``) or is constructed directly.
- **Failure surface** — a crashed trial raises ``TrialExecutionError``
  naming the job; it never hangs and never drops results.  The parallel
  stream watches completions (not submission order), so the first
  failure surfaces promptly even while earlier-submitted jobs are still
  running; results that completed before the failure are yielded first,
  which is what lets the checkpoint ledger keep them.
"""

from __future__ import annotations

import atexit
import os
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Iterator
from concurrent import futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from repro.core.config import SystemConfig
from repro.core.errors import TrialExecutionError
from repro.core.metrics import EpisodeResult
from repro.core.types import TaskSpec

#: In-flight jobs per worker when a stream is given no ``window``: enough
#: queued work that no worker idles while the consumer handles a
#: completion, and few enough that each wait round watches a handful of
#: futures rather than the whole wave.
IN_FLIGHT_PER_WORKER = 4


@dataclass(frozen=True)
class TrialJob:
    """One seeded episode of one configured system: the unit of dispatch.

    The job is fully picklable (frozen dataclasses of primitives all the
    way down), so it can cross a process boundary; the worker rebuilds
    the paradigm loop from it and runs the episode.

    ``prompt_series`` asks for Fig. 6's per-step prompt series on the
    result (:attr:`EpisodeResult.prompt_series`, empty otherwise); only
    ``episode_jobs``, Fig. 6's raw episodes, sets it.  It changes the
    result, so it is part of the job's fingerprint.
    """

    config: SystemConfig
    task: TaskSpec
    seed: int
    prompt_series: bool = False

    def describe(self) -> str:
        return f"{self.config.name}/{self.task.env_name} seed={self.seed}"


def run_trial_job(job: TrialJob) -> EpisodeResult:
    """Execute one job. Module-level so process pools can pickle it."""
    # Imported lazily: runner imports this module for ``TrialJob``.
    from repro.core.runner import build_loop

    loop = build_loop(job.config, job.task, job.seed)
    result = loop.run()
    if job.prompt_series:
        return replace(result, prompt_series=loop.metrics.prompt_series())
    return result


#: A job-execution function.  The default runs a real episode; benches
#: and ledger tests substitute module-level synthetic runners (a sleeping
#: job, a crash injector) — it must stay picklable for process pools.
JobRunner = Callable[[TrialJob], EpisodeResult]


class TrialExecutor(ABC):
    """Strategy for running a batch of independent trial jobs."""

    @abstractmethod
    def run_stream(
        self, jobs: Iterable[TrialJob], window: int | None = None
    ) -> Iterator[tuple[int, EpisodeResult]]:
        """Run jobs from a (possibly lazy) iterable, yielding completions.

        Yields ``(submission_index, result)`` pairs in completion order.
        ``window`` bounds how many jobs may be in flight (and therefore
        how far ahead of the consumer the job iterable is pulled);
        ``None`` lets the executor pick the bound from its worker count.

        A job that raises must surface a :class:`TrialExecutionError`
        naming the failed job — never hang, never drop completed
        results (completions that beat the failure are yielded first).
        """


class SerialExecutor(TrialExecutor):
    """In-process execution, bit-identical to the pre-executor seed code."""

    def __init__(self, job_runner: JobRunner = run_trial_job):
        self._runner = job_runner

    def run_stream(
        self, jobs: Iterable[TrialJob], window: int | None = None
    ) -> Iterator[tuple[int, EpisodeResult]]:
        for index, job in enumerate(jobs):
            try:
                result = self._runner(job)
            except Exception as exc:
                raise TrialExecutionError(
                    f"trial {job.describe()} failed: {exc!r}"
                ) from exc
            yield index, result


def default_worker_count() -> int:
    """Worker count when none is given: every core the scheduler grants us."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux fallback
        return max(1, os.cpu_count() or 1)


class ParallelExecutor(TrialExecutor):
    """Fan jobs out across a lazily created process pool.

    The pool is created on first use (constructing the executor is free)
    and survives across streams so sweeps amortize worker
    startup.  The stream watches completions: results are yielded the
    moment any worker finishes (the pipelining the ledger's
    checkpointing rides on), and a worker crash becomes an immediate,
    attributable exception instead of waiting behind earlier-submitted
    jobs that are still running.  Without a ``window``, at most
    :data:`IN_FLIGHT_PER_WORKER` jobs per worker are in flight, so the
    cost of each wait round stays flat however long the wave is.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        job_runner: JobRunner = run_trial_job,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1: {max_workers}")
        self.max_workers = max_workers or default_worker_count()
        self._runner = job_runner
        self._pool: futures.ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = futures.ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def run_stream(
        self, jobs: Iterable[TrialJob], window: int | None = None
    ) -> Iterator[tuple[int, EpisodeResult]]:
        if window is None:
            window = IN_FLIGHT_PER_WORKER * self.max_workers
        elif window < 1:
            raise ValueError(f"window must be >= 1: {window}")
        pool = self._ensure_pool()
        source = enumerate(jobs)
        in_flight: dict[futures.Future, tuple[int, TrialJob]] = {}
        exhausted = False

        def top_up() -> None:
            nonlocal exhausted
            while not exhausted and len(in_flight) < window:
                try:
                    index, job = next(source)
                except StopIteration:
                    exhausted = True
                    return
                in_flight[pool.submit(self._runner, job)] = (index, job)

        try:
            top_up()
            while in_flight:
                done, _ = futures.wait(
                    in_flight, return_when=futures.FIRST_COMPLETED
                )
                # Yield this round's successes (submission order within
                # the round, for determinism of side effects) before
                # raising on its first failure, so a crash never
                # discards results that already completed.
                completed = sorted(
                    (in_flight.pop(future), future) for future in done
                )
                failure: tuple[TrialJob, BaseException] | None = None
                for (index, job), future in completed:
                    error = future.exception()
                    if error is None:
                        yield index, future.result()
                    elif failure is None:
                        failure = (job, error)
                if failure is not None:
                    job, error = failure
                    if isinstance(error, BrokenProcessPool):
                        self.close()
                        raise TrialExecutionError(
                            f"worker pool died while running trial {job.describe()}"
                        ) from error
                    raise TrialExecutionError(
                        f"trial {job.describe()} failed in worker: {error!r}"
                    ) from error
                top_up()
        finally:
            for future in in_flight:
                future.cancel()

    def close(self) -> None:
        """Release the worker pool; the next stream forks a new one."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


_POOLS: dict[int, ParallelExecutor] = {}


def shared_pool(max_workers: int) -> ParallelExecutor:
    """The process's one parallel executor for ``max_workers`` workers.

    Created on first use and kept until :func:`shutdown_shared_executors`,
    so every wave of a run shares its workers instead of re-forking them.
    """
    if max_workers not in _POOLS:
        _POOLS[max_workers] = ParallelExecutor(max_workers=max_workers)
    return _POOLS[max_workers]


def shutdown_shared_executors() -> None:
    """Close every shared pool (used by tests, benchmarks and atexit)."""
    for executor in _POOLS.values():
        executor.close()
    _POOLS.clear()


atexit.register(shutdown_shared_executors)
