"""Executor engine tests: determinism, ordering, crash isolation, pooling."""

import pickle
import time
from dataclasses import replace
from functools import partial

import pytest
from conftest import crash_runner

from repro.core.errors import TrialExecutionError
from repro.core.executor import (
    IN_FLIGHT_PER_WORKER,
    ParallelExecutor,
    SerialExecutor,
    TrialJob,
    default_worker_count,
    run_trial_job,
    shutdown_shared_executors,
)
from repro.core.fleet import dispatch
from repro.core.metrics import EpisodeResult, aggregate
from repro.core.runner import build_task, trial_jobs
from repro.core.synthetic import sleep_runner, synthetic_job
from repro.experiments.common import ExperimentSettings
from repro.workloads import get_workload

#: One representative workload per paradigm loop.
PARADIGM_WORKLOADS = ("jarvis-1", "mindagent", "coela", "hmas")


@pytest.fixture(scope="module")
def parallel4():
    with ParallelExecutor(max_workers=4) as executor:
        yield executor


class TestJobConstruction:
    def test_trial_jobs_are_seed_ordered_and_picklable(self):
        config = get_workload("jarvis-1").config
        jobs = trial_jobs(config, 4, difficulty="easy", base_seed=17)
        assert len(jobs) == 4
        assert len({job.seed for job in jobs}) == 4
        restored = pickle.loads(pickle.dumps(jobs))
        assert restored == jobs

    def test_trial_jobs_validates_count(self):
        with pytest.raises(ValueError):
            trial_jobs(get_workload("jarvis-1").config, 0)

    def test_run_trial_job_matches_direct_episode(self):
        config = get_workload("embodiedgpt").config
        task = build_task(config, difficulty="easy", seed=5)
        result = run_trial_job(TrialJob(config=config, task=task, seed=5))
        assert isinstance(result, EpisodeResult)
        assert result.steps >= 1


class TestDeterminism:
    @pytest.mark.parametrize("workload", PARADIGM_WORKLOADS)
    def test_parallel_matches_serial_across_paradigms(self, workload, parallel4):
        jobs = trial_jobs(get_workload(workload).config, 4, difficulty="easy", base_seed=31)
        serial = aggregate(dispatch(jobs, SerialExecutor()))
        parallel = aggregate(dispatch(jobs, parallel4))
        assert parallel == serial
        # Byte-identical, not merely approximately equal: the aggregate
        # survives a round-trip through pickle with the same payload.
        assert pickle.dumps(parallel) == pickle.dumps(serial)

    def test_results_in_submission_order(self, parallel4):
        config = get_workload("embodiedgpt").config
        jobs = trial_jobs(config, 6, difficulty="easy", base_seed=3)
        parallel_results = dispatch(jobs, parallel4)
        serial_results = dispatch(jobs, SerialExecutor())
        assert [r.sim_seconds for r in parallel_results] == [
            r.sim_seconds for r in serial_results
        ]


class TestCrashIsolation:
    def _bad_job(self):
        config = get_workload("coela").config.with_planner("no-such-model")
        task = build_task(config, difficulty="easy", seed=1)
        return TrialJob(config=config, task=task, seed=1)

    def test_worker_crash_surfaces_clear_error(self, parallel4):
        with pytest.raises(TrialExecutionError) as excinfo:
            dispatch([self._bad_job()], parallel4)
        message = str(excinfo.value)
        assert "no-such-model" in message
        assert "seed=1" in message

    def test_pool_survives_a_crash(self, parallel4):
        with pytest.raises(TrialExecutionError):
            dispatch([self._bad_job()], parallel4)
        config = get_workload("embodiedgpt").config
        results = dispatch(trial_jobs(config, 2, difficulty="easy"), parallel4)
        assert len(results) == 2

    def test_serial_crash_wraps_identically(self):
        with pytest.raises(TrialExecutionError) as excinfo:
            dispatch([self._bad_job()], SerialExecutor())
        assert "no-such-model" in str(excinfo.value)


class TestStreaming:
    def test_serial_stream_yields_in_order(self):
        config = get_workload("embodiedgpt").config
        jobs = trial_jobs(config, 3, difficulty="easy", base_seed=5)
        stream = list(SerialExecutor().run_stream(jobs))
        assert [index for index, _ in stream] == [0, 1, 2]
        assert all(isinstance(result, EpisodeResult) for _, result in stream)

    def test_parallel_stream_covers_every_index(self, parallel4):
        config = get_workload("embodiedgpt").config
        jobs = trial_jobs(config, 6, difficulty="easy", base_seed=5)
        stream = list(parallel4.run_stream(jobs))
        assert sorted(index for index, _ in stream) == list(range(6))
        by_index = dict(stream)
        serial = dispatch(jobs, SerialExecutor())
        for index, expected in enumerate(serial):
            assert pickle.dumps(by_index[index]) == pickle.dumps(expected)

    def test_window_bounds_how_far_jobs_are_pulled(self):
        pulled = []

        def lazy_jobs():
            for seed in range(1, 6):
                job = synthetic_job(seed=seed, duration=0.01)
                pulled.append(seed)
                yield job

        with ParallelExecutor(max_workers=2, job_runner=sleep_runner) as executor:
            yielded = 0
            for _ in executor.run_stream(lazy_jobs(), window=2):
                yielded += 1
                assert len(pulled) <= yielded + 2
            assert yielded == 5
        assert pulled == [1, 2, 3, 4, 5]

    def test_default_window_is_bounded_by_worker_count(self):
        pulled = []

        def lazy_jobs():
            for seed in range(1, 21):
                pulled.append(seed)
                yield synthetic_job(seed=seed, duration=0.002)

        with ParallelExecutor(max_workers=2, job_runner=sleep_runner) as executor:
            leads = [
                len(pulled) - consumed
                for consumed, _ in enumerate(executor.run_stream(lazy_jobs()))
            ]
        assert len(leads) == 20
        assert max(leads) == IN_FLIGHT_PER_WORKER * 2

    def test_failure_preserves_earlier_completions(self):
        jobs = [synthetic_job(seed=seed) for seed in range(1, 6)]
        executor = SerialExecutor(job_runner=partial(crash_runner, seeds=frozenset({3})))
        seen = []
        with pytest.raises(TrialExecutionError, match="seed=3"):
            for index, _ in executor.run_stream(jobs):
                seen.append(index)
        assert seen == [0, 1]

    def test_parallel_failure_names_job_promptly(self):
        # The crashing job is submitted last behind slow jobs; the
        # completion watch surfaces it without waiting for the stragglers.
        jobs = [synthetic_job(seed=seed, duration=0.3) for seed in (1, 2)]
        jobs.append(synthetic_job(seed=9))
        crashing = partial(crash_runner, seeds=frozenset({9}))
        with ParallelExecutor(max_workers=4, job_runner=crashing) as executor:
            started = time.perf_counter()
            with pytest.raises(TrialExecutionError, match="seed=9"):
                list(executor.run_stream(jobs))
            elapsed = time.perf_counter() - started
        assert elapsed < 5.0  # bounded by pool spin-up, not by the sleeps

    def test_stream_rejects_bad_window(self, parallel4):
        with pytest.raises(ValueError):
            list(parallel4.run_stream([], window=0))


class TestFactoriesAndPooling:
    def test_parallel_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ParallelExecutor(max_workers=0)

    def test_get_executor_is_cached_per_spec(self):
        """``ExperimentSettings.make_executor`` caches one pool per worker
        count, so every wave of a parallel run reuses it, and shutting the
        shared pools down reaches every pool the run made."""
        settings = ExperimentSettings(executor="parallel", max_workers=2)
        try:
            first = settings.make_executor()
            assert isinstance(first, ParallelExecutor)
            assert first.max_workers == 2
            assert replace(settings, n_trials=1).make_executor() is first
            other = replace(settings, max_workers=3).make_executor()
            assert other is not first
            assert other.max_workers == 3
            shutdown_shared_executors()
            assert settings.make_executor() is not first
        finally:
            shutdown_shared_executors()
        assert isinstance(ExperimentSettings().make_executor(), SerialExecutor)

    def test_default_worker_count_shares_explicit_pool(self, monkeypatch):
        # The entry points' spelling of a worker count (REPRO_WORKERS) and
        # the explicit one key the same pool, so a run mixing the two
        # never forks two pools.  No worker starts: pools fork on first use.
        workers = max(2, default_worker_count())
        monkeypatch.setenv("REPRO_WORKERS", str(workers))
        try:
            implicit = ExperimentSettings.from_env().make_executor()
            explicit = ExperimentSettings(executor="parallel", max_workers=workers)
            assert explicit.make_executor() is implicit
            assert implicit.max_workers == workers
        finally:
            shutdown_shared_executors()
        # Serial settings have no workers: every count gets a serial executor.
        assert isinstance(ExperimentSettings(max_workers=5).make_executor(), SerialExecutor)

    def test_empty_batch_is_a_noop(self):
        with ParallelExecutor(max_workers=2) as executor:
            assert dispatch([], executor) == []
            assert list(executor.run_stream([])) == []
