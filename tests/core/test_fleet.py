"""Checkpoint ledger tests: fingerprints, the journal, and resume."""

import hashlib
import importlib.util
import json
import pickle
import shutil
import sys
import tempfile
import time
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import pytest
from conftest import crash_runner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import fleet
from repro.core.errors import TrialExecutionError
from repro.core.executor import ParallelExecutor, SerialExecutor, run_trial_job
from repro.core.fleet import (
    FLUSH_RECORDS,
    JobLedger,
    decode_result,
    dispatch,
    encode_result,
    job_fingerprint,
    knob_fingerprint,
    ledger_from_env,
)
from repro.core.metrics import EpisodeResult, aggregate
from repro.core.runner import build_loop, trial_jobs
from repro.core.synthetic import sleep_runner, synthetic_job
from repro.experiments import suite
from repro.experiments.common import ExperimentSettings, episode_jobs, grid_jobs
from repro.workloads import get_workload

E2E_WORKLOADS = Path(__file__).resolve().parents[2] / "e2ebench" / "workloads.py"


def real_jobs(n_trials=3, base_seed=11):
    config = get_workload("embodiedgpt").config
    return trial_jobs(config, n_trials, difficulty="easy", base_seed=base_seed)


def synth_jobs(n=4, **kwargs):
    return [synthetic_job(seed=seed, **kwargs) for seed in range(1, n + 1)]


def batched_jobs(jobs):
    """``jobs`` with their configs served ``batched``."""
    return [
        replace(job, config=job.config.with_optimizations(serve_mode="batched")) for job in jobs
    ]


def counting(runner=sleep_runner):
    """A serial executor over ``runner``, and the list of jobs it runs."""
    ran = []

    def run(job):
        ran.append(job)
        return runner(job)

    return SerialExecutor(job_runner=run), ran


def record_line(record: dict) -> bytes:
    return (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode()


def reference_payload(job) -> dict:
    """What ``job_fingerprint`` hashes, built the slow way: ``asdict``
    renders the same JSON through deep copies of every value."""
    return {
        "config": asdict(job.config),
        "task": asdict(job.task),
        "seed": job.seed,
        "prompt_series": job.prompt_series,
        "semantics": fleet.SEMANTICS_VERSION,
    }


def payload_digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def version_two_fingerprint(job) -> str:
    """The fingerprint a version-2 ledger keyed ``job`` by: no flag."""
    payload = reference_payload(job)
    del payload["prompt_series"]
    payload["semantics"] = 2
    return payload_digest(payload)


def suite_wave(n_trials: int) -> list:
    """Every job the suite report submits at ``n_trials``."""
    settings = ExperimentSettings(n_trials=n_trials)
    return [
        job
        for _, module, episodes in suite._FIGURES
        for job in (episode_jobs if episodes else grid_jobs)(module.grid(), settings)
    ]


def e2ebench_grids() -> list:
    """The end-to-end benchmark's three grids, at their default seed and trials."""
    name = "e2ebench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, E2E_WORKLOADS)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    workloads = sys.modules[name]
    return [
        job
        for workload in workloads.WORKLOADS.values()
        for job in grid_jobs(
            workloads.build_cells(workload),
            ExperimentSettings(n_trials=workload.trials, base_seed=workloads.DEFAULT_SEED),
        )
    ]


@pytest.fixture
def ledger(tmp_path):
    return JobLedger(tmp_path / "ledger.jsonl", flush_seconds=0)


class TestFingerprints:
    def test_stable_across_calls(self):
        job = synth_jobs(1)[0]
        assert job_fingerprint(job) == job_fingerprint(job)

    def test_distinct_per_seed_and_config(self):
        jobs = synth_jobs(3)
        prints = {job_fingerprint(job) for job in jobs}
        assert len(prints) == 3
        other = synthetic_job(name="other-system", seed=1)
        assert job_fingerprint(other) not in prints

    def test_result_knob_invalidates(self, monkeypatch):
        """The serving mode is a config field, so it moves the fingerprint;
        the retired ``REPRO_SERVE`` knob moves nothing."""
        before = job_fingerprint(synth_jobs(1)[0])
        monkeypatch.setenv("REPRO_SERVE", "batched")
        assert job_fingerprint(synth_jobs(1)[0]) == before  # the library reads no knob
        assert job_fingerprint(batched_jobs(synth_jobs(1))[0]) != before

    def test_execution_knobs_do_not_invalidate(self, monkeypatch):
        before = job_fingerprint(synth_jobs(1)[0])
        for knob in ("REPRO_WORKERS", "REPRO_TRIALS", "REPRO_LEDGER"):
            monkeypatch.setenv(knob, "9")
        assert job_fingerprint(synth_jobs(1)[0]) == before
        assert knob_fingerprint() == {}

    def test_matches_the_asdict_reference(self):
        """The shallow field walk hashes exactly the JSON ``asdict`` gives,
        on every job of the five-trial suite wave, the end-to-end
        benchmark's grids and the synthetic jobs; the flag moves it."""
        wave = suite_wave(5)
        assert any(job.prompt_series for job in wave)  # Fig. 6's raw episodes
        grids = e2ebench_grids()
        synthetic = synth_jobs(3) + batched_jobs(synth_jobs(2))
        for job in wave + grids + synthetic:
            assert job_fingerprint(job) == payload_digest(reference_payload(job)), (
                job.describe()
            )
            flipped = replace(job, prompt_series=not job.prompt_series)
            assert job_fingerprint(flipped) != job_fingerprint(job), job.describe()

    def test_knob_fingerprint_only_repro_vars(self, monkeypatch):
        """No knob changes a result, so the run records' knob list is
        empty whatever the shell exports."""
        for knob in ("REPRO_SERVE", "REPRO_OVERLAP", "REPRO_WORKERS", "REPRO_LEDGER"):
            monkeypatch.setenv(knob, "1")
        monkeypatch.setenv("NOT_A_KNOB", "1")
        assert knob_fingerprint() == {}


class TestLedger:
    def test_done_round_trips_byte_identically(self, ledger):
        job = real_jobs(1)[0]
        result = run_trial_job(job)
        assert pickle.dumps(decode_result(encode_result(result))) == pickle.dumps(
            result
        )
        ledger.append_done("fp1", job, result)
        payload = ledger.load()["fp1"]
        assert pickle.dumps(decode_result(payload)) == pickle.dumps(result)

    def test_done_wins_over_any_lease(self, ledger):
        # Lease lines (written by the sharded ledger this one replaced)
        # carry no payload: they never hide or replace a done record.
        job = synth_jobs(1)[0]
        result = sleep_runner(job)
        lease = {"kind": "lease", "fingerprint": "fp1", "shard": 1, "expires": 9e9}
        ledger.path.write_bytes(record_line(lease))
        ledger.append_done("fp1", job, result)
        with ledger.path.open("ab") as handle:
            handle.write(record_line(dict(lease, shard=2)))
        assert ledger.load() == {"fp1": encode_result(result)}

    def test_torn_trailing_line_is_skipped(self, ledger):
        job = synth_jobs(1)[0]
        ledger.append_done("fp1", job, sleep_runner(job))
        with ledger.path.open("a") as handle:
            handle.write('{"fingerprint": "fp2", "payl')
        assert set(ledger.load()) == {"fp1"}

    def test_torn_line_consumed_once_completed(self, ledger):
        job = synth_jobs(1)[0]
        ledger.append_done("fp1", job, sleep_runner(job))
        record = record_line(
            {"fingerprint": "fp2", "job": "late", "payload": encode_result(sleep_runner(job))}
        )
        with ledger.path.open("ab") as handle:  # a write seen half-way through
            handle.write(record[:10])
        assert set(ledger.load()) == {"fp1"}  # the torn tail stays unread
        with ledger.path.open("ab") as handle:
            handle.write(record[10:])
        assert set(ledger.load()) == {"fp1", "fp2"}

    def test_records_are_readable_json(self, ledger):
        job = synth_jobs(1)[0]
        ledger.append_done("fp1", job, sleep_runner(job), shard=3)  # shard ignored
        record = json.loads(ledger.path.read_text().splitlines()[0])
        assert set(record) == {"fingerprint", "job", "payload"}
        assert record["fingerprint"] == "fp1"
        assert record["job"] == job.describe()

    def test_flush_seconds_validated(self, tmp_path):
        with pytest.raises(ValueError, match="flush_seconds"):
            JobLedger(tmp_path / "ledger.jsonl", flush_seconds=-1)


class TestCheckpointResume:
    def test_resume_skips_done_and_matches_serial(self, ledger):
        jobs = real_jobs(3)
        alone = [run_trial_job(job) for job in jobs]

        executor, ran = counting(run_trial_job)
        results = dispatch(jobs, executor, ledger)
        assert len(ran) == 3

        resumed = dispatch(jobs, executor, ledger)
        assert len(ran) == 3  # nothing more ran: every episode restored
        for a, b, c in zip(alone, results, resumed):
            assert pickle.dumps(a) == pickle.dumps(b) == pickle.dumps(c)
        assert pickle.dumps(aggregate(resumed)) == pickle.dumps(aggregate(alone))

    def test_crash_mid_sweep_persists_completed_prefix(self, tmp_path):
        # The default flush window: the prefix persists because every
        # exit path of dispatch flushes, not because each append does.
        ledger = JobLedger(tmp_path / "ledger.jsonl")
        jobs = synth_jobs(5)
        crashing = SerialExecutor(job_runner=partial(crash_runner, seeds=frozenset({4})))
        with pytest.raises(TrialExecutionError):
            dispatch(jobs, crashing, ledger)
        assert len(ledger.load()) == 3  # seeds 1-3 completed before the crash

        # Restart against the same ledger with the fault cleared: only
        # the missing episodes run, and the output matches a run that
        # never crashed.
        executor, ran = counting()
        results = dispatch(jobs, executor, ledger)
        assert [job.seed for job in ran] == [4, 5]
        uninterrupted = [sleep_runner(job) for job in jobs]
        assert pickle.dumps(aggregate(results)) == pickle.dumps(
            aggregate(uninterrupted)
        )

    def test_worker_crash_mid_sweep_resumes_parallel(self, ledger):
        jobs = synth_jobs(6, duration=0.01)
        crashing = partial(crash_runner, seeds=frozenset({5, 6}))
        with ParallelExecutor(max_workers=2, job_runner=crashing) as pool:
            with pytest.raises(TrialExecutionError, match="seed"):
                dispatch(jobs, pool, ledger)
        survivors = len(ledger.load())
        assert survivors >= 1  # at least the completions that beat the crash

        executor, ran = counting()
        results = dispatch(jobs, executor, ledger)
        assert len(ran) == 6 - survivors
        uninterrupted = [sleep_runner(job) for job in jobs]
        assert pickle.dumps(aggregate(results)) == pickle.dumps(
            aggregate(uninterrupted)
        )

    def test_knob_change_invalidates_resume(self, ledger, monkeypatch):
        executor, ran = counting()
        dispatch(synth_jobs(2), executor, ledger)
        monkeypatch.setenv("REPRO_SERVE", "batched")
        dispatch(synth_jobs(2), executor, ledger)
        assert len(ran) == 2  # the retired knob changes nothing: both restored
        dispatch(batched_jobs(synth_jobs(2)), executor, ledger)
        assert len(ran) == 4  # nothing restored: the config moved the fingerprints

    def test_duplicate_jobs_execute_once(self, ledger):
        job = synth_jobs(1)[0]
        executor, ran = counting()
        results = dispatch([job, job, job], executor, ledger)
        assert len(ran) == 1
        assert len(results) == 3
        assert results[0] is results[1] is results[2]
        assert len(ledger.load()) == 1

    def test_duplicate_jobs_execute_once_without_ledger(self):
        first, second = synth_jobs(2)
        executor, ran = counting()
        results = dispatch([first, second, first, first, second], executor)
        assert ran == [first, second]
        assert results[0] is results[2] is results[3]
        assert results[1] is results[4]
        assert pickle.dumps(results[1]) == pickle.dumps(sleep_runner(second))

    def test_parent_format_ledger_resumes_its_journal(self, ledger):
        """A ledger the sharded runner wrote: its journal's done records
        restore, its leases are ignored, and its compaction snapshot is
        never read — episodes moved there re-run, to the same bytes."""
        jobs = synth_jobs(5)
        results = [sleep_runner(job) for job in jobs]
        prints = [job_fingerprint(job) for job in jobs]

        def lease(index, shard=0):
            return {
                "kind": "lease",
                "fingerprint": prints[index],
                "shard": shard,
                "ts": 1.7e9,
                "expires": 1.7e9 + 300,
            }

        def done(index, shard=0):
            return {
                "kind": "done",
                "fingerprint": prints[index],
                "shard": shard,
                "ts": 1.7e9,
                "job": jobs[index].describe(),
                "prompt_tokens": 60,
                "output_tokens": 40,
                "models": {"llama-3-8b": [60, 40]},
                "payload": encode_result(results[index]),
            }

        journal = [lease(0), done(0), lease(1, 1), done(1, 1), lease(2), lease(3, 2)]
        ledger.path.write_bytes(b"".join(record_line(r) for r in journal))
        snap = ledger.path.with_name(ledger.path.name + ".snap")
        snapshot = record_line({"kind": "snap", "generation": 1, "records": 1})
        snap.write_bytes(snapshot + record_line(done(4)))

        executor, ran = counting()
        resumed = dispatch(jobs, executor, ledger)
        assert len(ran) == 3  # 2 and 3 were only leased; 4 sits in .snap
        assert [pickle.dumps(r) for r in resumed] == [pickle.dumps(r) for r in results]
        assert snap.read_bytes() == snapshot + record_line(done(4))
        assert set(JobLedger(ledger.path).load()) == set(prints)

    def test_version_one_ledger_restores_nothing(self, ledger, monkeypatch):
        """A line from before results dropped their per-step lists, keyed
        by the job's version-1 fingerprint: the job runs again instead of
        restoring a result that lacks ``prompt_series``."""
        job = real_jobs(1)[0]
        loop = build_loop(job.config, job.task, job.seed)
        fresh = loop.run()
        state = dict(vars(fresh))
        del state["prompt_series"]
        state["records"] = loop.metrics.records
        state["token_samples"] = loop.metrics.token_samples
        parent_shape = object.__new__(EpisodeResult)
        parent_shape.__dict__.update(state)  # what a version-1 payload unpickles to
        with monkeypatch.context() as patch:
            patch.setattr(fleet, "SEMANTICS_VERSION", 1)
            old_print = job_fingerprint(job)
        ledger.append_done(old_print, job, parent_shape)
        before = ledger.path.read_bytes()

        executor, ran = counting(run_trial_job)
        [result] = dispatch([job], executor, ledger)
        assert ran == [job]
        after = ledger.path.read_bytes()
        assert after.startswith(before)
        assert len(after[len(before) :].splitlines()) == 1
        assert pickle.dumps(result) == pickle.dumps(fresh)


    def test_version_two_ledger_line_is_not_restored(self, ledger):
        """A version-2 line for a grid job, keyed by the job's version-2
        fingerprint and holding the series every version-2 result
        carried: the job runs again, and its result holds no series."""
        job = real_jobs(1)[0]
        loop = build_loop(job.config, job.task, job.seed)
        fresh = loop.run()
        version_two = replace(fresh, prompt_series=loop.metrics.prompt_series())
        assert version_two.prompt_series
        ledger.append_done(version_two_fingerprint(job), job, version_two)
        before = ledger.path.read_bytes()

        executor, ran = counting(run_trial_job)
        [result] = dispatch([job], executor, ledger)
        assert ran == [job]
        assert result.prompt_series == {}
        assert pickle.dumps(result) == pickle.dumps(fresh)
        after = ledger.path.read_bytes()
        assert after.startswith(before)
        assert len(after[len(before) :].splitlines()) == 1


class TestEnvConstruction:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert ledger_from_env() is None

    def test_env_knobs_select_runner(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", f" {tmp_path / 'l.jsonl'} ")
        ledger = ledger_from_env()
        assert ledger is not None
        assert ledger.path == tmp_path / "l.jsonl"
        assert ledger.flush_seconds == 0.5  # batched by default

    def test_grid_dispatch_routes_through_ledger(self, tmp_path, monkeypatch):
        from repro.experiments.common import ExperimentSettings, GridCell, measure_grid

        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "grid.jsonl"))
        settings = ExperimentSettings(
            n_trials=2, executor="serial", max_workers=1, difficulty="easy"
        )
        cells = [GridCell(config=get_workload("embodiedgpt").config)]
        first = measure_grid(cells, settings)[0]
        assert (tmp_path / "grid.jsonl").exists()
        second = measure_grid(cells, settings)[0]  # restored wholly from ledger
        assert pickle.dumps(first) == pickle.dumps(second)
        monkeypatch.delenv("REPRO_LEDGER")
        direct = measure_grid(cells, settings)[0]
        assert pickle.dumps(direct) == pickle.dumps(first)


class TestLedgerEnvKnobs:
    def test_flush_and_compaction_knobs(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(path))
        assert ledger_from_env().flush_seconds == 0.5  # batched by default
        # The retired flush and compaction knobs are inert: the window
        # stays the default and the journal is never snapshotted.
        monkeypatch.setenv("REPRO_FLUSH_SECONDS", "0")
        monkeypatch.setenv("REPRO_COMPACT_RECORDS", "1")
        ledger = ledger_from_env()
        assert ledger.flush_seconds == 0.5
        job = synth_jobs(1)[0]
        for index in range(3):
            ledger.append_done(f"fp-{index}", job, sleep_runner(job))
        ledger.flush()
        assert set(JobLedger(path).load()) == {"fp-0", "fp-1", "fp-2"}
        assert not path.with_name(path.name + ".snap").exists()

    def test_io_knobs_do_not_invalidate_fingerprints(self, monkeypatch):
        before = job_fingerprint(synth_jobs(1)[0])
        for knob in (
            "REPRO_FLUSH_SECONDS",
            "REPRO_COMPACT_RECORDS",
            "REPRO_BUDGET_PARTITION",
        ):
            monkeypatch.setenv(knob, "7")
        assert job_fingerprint(synth_jobs(1)[0]) == before
        assert knob_fingerprint() == {}


class TestBatchedFlush:
    def test_buffer_invisible_to_others_until_flush(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        buffered = JobLedger(path, flush_seconds=60)
        job = synth_jobs(1)[0]
        buffered.append_done("fp-buf", job, sleep_runner(job))
        assert "fp-buf" not in JobLedger(path).load()
        buffered.flush()
        assert "fp-buf" in JobLedger(path).load()

    def test_elapsed_window_triggers_flush(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        buffered = JobLedger(path, flush_seconds=0.01)
        job = synth_jobs(1)[0]
        buffered.append_done("fp-a", job, sleep_runner(job))
        time.sleep(0.02)
        buffered.append_done("fp-b", job, sleep_runner(job))
        assert set(JobLedger(path).load()) == {"fp-a", "fp-b"}

    def test_full_buffer_triggers_flush(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        buffered = JobLedger(path, flush_seconds=3600)
        job = synth_jobs(1)[0]
        for index in range(FLUSH_RECORDS):
            assert not path.exists()
            buffered.append_done(f"fp-{index}", job, sleep_runner(job))
        assert len(JobLedger(path).load()) == FLUSH_RECORDS

    def test_flush_heals_foreign_torn_tail(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b'{"fingerprint":"half","payl')  # no newline
        writer = JobLedger(path, flush_seconds=0)
        job = synth_jobs(1)[0]
        writer.append_done("fp-after", job, sleep_runner(job))
        # The torn line was terminated before the append, so the new
        # record parses; the half record is skipped as corrupt.
        assert set(JobLedger(path).load()) == {"fp-after"}

    def test_unflushed_records_are_the_crash_loss_bound(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        buffered = JobLedger(path, flush_seconds=60)
        job = synth_jobs(1)[0]
        buffered.append_done("fp-lost", job, sleep_runner(job))
        del buffered  # crash before any flush: loss <= one flush window
        assert not path.exists() or path.stat().st_size == 0


class TestCorruptLedger:
    def test_duplicate_done_conflicting_payloads_first_wins(self, ledger):
        job = synthetic_job(name="dup", seed=1, prompt_tokens=10, output_tokens=5)
        first = sleep_runner(job)
        conflicting = sleep_runner(
            synthetic_job(name="dup", seed=1, prompt_tokens=999, output_tokens=999)
        )
        ledger.append_done("fp-dup", job, first)
        ledger.append_done("fp-dup", job, conflicting)
        payload = JobLedger(ledger.path).load()["fp-dup"]
        assert pickle.dumps(decode_result(payload)) == pickle.dumps(first)

    def test_lease_for_unknown_fingerprint_tolerated(self, ledger):
        lease = {"kind": "lease", "fingerprint": "no-such-job", "expires": 0.0}
        ledger.path.write_bytes(record_line(lease))
        executor, ran = counting()
        results = dispatch(synth_jobs(2), executor, ledger)
        assert len(results) == 2 and len(ran) == 2
        assert "no-such-job" not in ledger.load()

    def test_mid_file_garbage_skipped(self, ledger):
        job = synth_jobs(1)[0]
        ledger.append_done("fp-1", job, sleep_runner(job))
        with ledger.path.open("ab") as handle:
            handle.write(b"%% corrupted by a disk hiccup %%\n[1, 2]\n\xff\xfe\n")
        JobLedger(ledger.path, flush_seconds=0).append_done("fp-2", job, sleep_runner(job))
        assert set(JobLedger(ledger.path).load()) == {"fp-1", "fp-2"}


# ---------------------------------------------------------------------- #
# Property: dispatch streams each fingerprint the ledger lacks once
# ---------------------------------------------------------------------- #

#: Distinct jobs with distinct results; a drawn job list repeats them.
POOL = [synthetic_job(seed=seed, prompt_tokens=10 * seed) for seed in range(1, 6)]
POOL_PRINTS = [job_fingerprint(job) for job in POOL]
ALONE = [pickle.dumps(sleep_runner(job)) for job in POOL]


class RecordingExecutor(SerialExecutor):
    """Serial executor that records the job list of every stream it
    starts, and whose runner dies on the seeds in ``crash_seeds``."""

    def __init__(self, crash_seeds: frozenset[int] = frozenset()):
        super().__init__(job_runner=partial(crash_runner, seeds=crash_seeds))
        self.streams: list[list] = []

    def run_stream(self, jobs, window=None):
        assert isinstance(jobs, list)
        self.streams.append(jobs)
        return super().run_stream(jobs, window)

    def streamed(self) -> list[list[str]]:
        """Each stream's fingerprints, in submission order."""
        return [[job_fingerprint(job) for job in stream] for stream in self.streams]


def appended_prints(ledger: JobLedger, before: int) -> list[str]:
    """Fingerprints of the lines written past byte offset ``before``."""
    blob = ledger.path.read_bytes()[before:] if ledger.path.exists() else b""
    return [json.loads(line)["fingerprint"] for line in blob.splitlines()]


def ledger_size(ledger: JobLedger) -> int:
    return ledger.path.stat().st_size if ledger.path.exists() else 0


class TestDispatchProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        picks=st.lists(st.integers(0, len(POOL) - 1), max_size=10),
        stored=st.sets(st.integers(0, len(POOL) - 1)),
        crash=st.none() | st.integers(0, len(POOL) - 1),
    )
    def test_runs_each_missing_fingerprint_once(self, picks, stored, crash):
        jobs = [POOL[pick] for pick in picks]
        missing = [pick for pick in dict.fromkeys(picks) if pick not in stored]
        crash_at = missing.index(crash) if crash in missing else len(missing)

        def check_slots(results):
            assert [pickle.dumps(result) for result in results] == [
                ALONE[pick] for pick in picks
            ]
            for a, result in enumerate(results):
                for b, other in enumerate(results):
                    assert (result is other) == (picks[a] == picks[b])

        # Without a ledger every distinct fingerprint streams once.
        executor = RecordingExecutor()
        check_slots(dispatch(jobs, executor))
        distinct = [POOL_PRINTS[pick] for pick in dict.fromkeys(picks)]
        assert executor.streamed() == ([distinct] if distinct else [])

        with tempfile.TemporaryDirectory() as directory:
            ledger = JobLedger(Path(directory) / "ledger.jsonl", flush_seconds=3600)
            for pick in sorted(stored):
                ledger.append_done(POOL_PRINTS[pick], POOL[pick], sleep_runner(POOL[pick]))
            ledger.flush()
            before = ledger_size(ledger)

            executor = RecordingExecutor(
                frozenset() if crash is None else frozenset({POOL[crash].seed})
            )
            if crash_at < len(missing):
                with pytest.raises(TrialExecutionError):
                    dispatch(jobs, executor, ledger)
            else:
                check_slots(dispatch(jobs, executor, ledger))
            lacked = [POOL_PRINTS[pick] for pick in missing]
            assert executor.streamed() == ([lacked] if lacked else [])
            # Exactly the completions before the crash reached the ledger.
            assert appended_prints(ledger, before) == lacked[:crash_at]

            # A restart runs only the rest; then a full resume streams nothing.
            for rest in (lacked[crash_at:], []):
                executor = RecordingExecutor()
                before = ledger_size(ledger)
                check_slots(dispatch(jobs, executor, ledger))
                assert executor.streamed() == ([rest] if rest else [])
                assert appended_prints(ledger, before) == rest


# ---------------------------------------------------------------------- #
# Stateful model: two writers, explicit flushes, crashes and torn writes
# ---------------------------------------------------------------------- #

#: A few fingerprints, so appends collide and first-wins is exercised.
FINGERPRINTS = ("fp-a", "fp-b", "fp-c")


def outcome(prompt_tokens):
    job = synthetic_job(seed=1, prompt_tokens=prompt_tokens)
    result = sleep_runner(job)
    return job, result, encode_result(result)


#: Distinct episode results to append: (job, result, encoded payload).
OUTCOMES = [outcome(prompt_tokens) for prompt_tokens in (10, 20, 30)]


class LedgerMachine(RuleBasedStateMachine):
    """Two writers share one path; a fresh reader must always see, per
    fingerprint, the first payload that reached the file whole."""

    def __init__(self):
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="ledger-machine-"))
        self.path = self.directory / "ledger.jsonl"
        self.writers = [JobLedger(self.path, flush_seconds=3600) for _ in range(2)]
        self.staged: list[list[tuple[str, str]]] = [[], []]
        self.model: dict[str, str] = {}

    def _land(self, writer: int) -> None:
        for fingerprint, payload in self.staged[writer]:
            self.model.setdefault(fingerprint, payload)
        self.staged[writer] = []

    @rule(
        writer=st.integers(0, 1),
        fingerprint=st.sampled_from(FINGERPRINTS),
        outcome=st.integers(0, len(OUTCOMES) - 1),
    )
    def append(self, writer, fingerprint, outcome):
        job, result, payload = OUTCOMES[outcome]
        self.writers[writer].append_done(fingerprint, job, result)
        self.staged[writer].append((fingerprint, payload))
        if len(self.staged[writer]) >= FLUSH_RECORDS:
            self._land(writer)

    @rule(writer=st.integers(0, 1))
    def flush(self, writer):
        self.writers[writer].flush()
        self._land(writer)

    @rule(writer=st.integers(0, 1))
    def crash(self, writer):
        self.writers[writer] = JobLedger(self.path, flush_seconds=3600)
        self.staged[writer] = []

    @rule(
        data=st.data(),
        fingerprint=st.sampled_from(FINGERPRINTS),
        outcome=st.integers(0, len(OUTCOMES) - 1),
    )
    def tear(self, data, fingerprint, outcome):
        job, _result, payload = OUTCOMES[outcome]
        line = record_line({"fingerprint": fingerprint, "job": job.describe(), "payload": payload})
        cut = data.draw(st.integers(1, len(line) - 2))  # strict prefix, no newline
        with self.path.open("ab") as handle:
            handle.write(line[:cut])

    @invariant()
    def reader_sees_first_whole_records(self):
        assert JobLedger(self.path).load() == self.model

    def teardown(self):
        shutil.rmtree(self.directory, ignore_errors=True)


TestLedgerStateMachine = LedgerMachine.TestCase
TestLedgerStateMachine.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
