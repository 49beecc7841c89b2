"""Checkpoint ledger tests: fingerprints, the journal, and resume."""

import json
import pickle
import shutil
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.errors import TrialExecutionError
from repro.core.executor import ParallelExecutor, SerialExecutor
from repro.core.fleet import (
    FLUSH_RECORDS,
    FleetRunner,
    JobLedger,
    decode_result,
    encode_result,
    fleet_from_env,
    job_fingerprint,
    knob_fingerprint,
)
from repro.core.metrics import aggregate
from repro.core.runner import trial_jobs
from repro.core.settings import ENV_KNOBS
from repro.core.synthetic import (
    CRASH_SEEDS_KNOB,
    crash_seed_runner,
    sleep_runner,
    synthetic_job,
)
from repro.workloads import get_workload


def real_jobs(n_trials=3, base_seed=11):
    config = get_workload("embodiedgpt").config
    return trial_jobs(config, n_trials, difficulty="easy", base_seed=base_seed)


def synth_jobs(n=4, **kwargs):
    return [synthetic_job(seed=seed, **kwargs) for seed in range(1, n + 1)]


def record_line(record: dict) -> bytes:
    return (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode()


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
        before = job_fingerprint(synth_jobs(1)[0])
        monkeypatch.setenv("REPRO_SERVE", "batched")
        job = synth_jobs(1)[0]  # resolves its settings at construction
        assert job.settings.serve == "batched"
        assert job_fingerprint(job) != before

    def test_execution_knobs_do_not_invalidate(self, monkeypatch):
        before = job_fingerprint(synth_jobs(1)[0])
        knobs = knob_fingerprint()
        for knob in ("REPRO_WORKERS", "REPRO_TRIALS", "REPRO_SYNTH_CRASH_SEEDS", "REPRO_LEDGER"):
            assert knob not in ENV_KNOBS
            monkeypatch.setenv(knob, "9")
        assert job_fingerprint(synth_jobs(1)[0]) == before
        assert knob_fingerprint() == knobs

    def test_knob_fingerprint_only_repro_vars(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE", "continuous")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("NOT_A_KNOB", "1")
        knobs = knob_fingerprint()
        assert knobs.get("REPRO_SERVE") == "continuous"
        assert "NOT_A_KNOB" not in knobs
        assert "REPRO_WORKERS" not in knobs


class TestLedger:
    def test_done_round_trips_byte_identically(self, ledger):
        job = real_jobs(1)[0]
        result = SerialExecutor().run_jobs([job])[0]
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
        serial = SerialExecutor().run_jobs(jobs)

        first = FleetRunner(ledger)
        results = first.run_jobs(jobs, SerialExecutor())
        assert first.executed == 3

        second = FleetRunner(ledger)
        resumed = second.run_jobs(jobs, SerialExecutor())
        assert second.executed == 0
        for a, b, c in zip(serial, results, resumed):
            assert pickle.dumps(a) == pickle.dumps(b) == pickle.dumps(c)
        assert pickle.dumps(aggregate(resumed)) == pickle.dumps(aggregate(serial))

    def test_crash_mid_sweep_persists_completed_prefix(self, tmp_path, monkeypatch):
        # The default flush window: the prefix persists because every
        # exit path of run_jobs flushes, not because each append does.
        ledger = JobLedger(tmp_path / "ledger.jsonl")
        jobs = synth_jobs(5)
        monkeypatch.setenv(CRASH_SEEDS_KNOB, "4")
        crashing = SerialExecutor(job_runner=crash_seed_runner)
        runner = FleetRunner(ledger)
        with pytest.raises(TrialExecutionError):
            runner.run_jobs(jobs, crashing)
        assert len(ledger.load()) == 3  # seeds 1-3 completed before the crash

        # Restart against the same ledger with the fault cleared: only
        # the missing episodes run, and the output matches a run that
        # never crashed.
        monkeypatch.delenv(CRASH_SEEDS_KNOB)
        resumed = FleetRunner(ledger)
        results = resumed.run_jobs(jobs, SerialExecutor(job_runner=sleep_runner))
        assert resumed.executed == 2
        uninterrupted = SerialExecutor(job_runner=sleep_runner).run_jobs(jobs)
        assert pickle.dumps(aggregate(results)) == pickle.dumps(
            aggregate(uninterrupted)
        )

    def test_worker_crash_mid_sweep_resumes_parallel(self, ledger, monkeypatch):
        jobs = synth_jobs(6, duration=0.01)
        monkeypatch.setenv(CRASH_SEEDS_KNOB, "5,6")
        with ParallelExecutor(max_workers=2, job_runner=crash_seed_runner) as pool:
            with pytest.raises(TrialExecutionError, match="seed"):
                FleetRunner(ledger).run_jobs(jobs, pool)
        survivors = len(ledger.load())
        assert survivors >= 1  # at least the completions that beat the crash

        monkeypatch.delenv(CRASH_SEEDS_KNOB)
        resumed = FleetRunner(ledger)
        results = resumed.run_jobs(jobs, SerialExecutor(job_runner=sleep_runner))
        assert resumed.executed == 6 - survivors
        uninterrupted = SerialExecutor(job_runner=sleep_runner).run_jobs(jobs)
        assert pickle.dumps(aggregate(results)) == pickle.dumps(
            aggregate(uninterrupted)
        )

    def test_knob_change_invalidates_resume(self, ledger, monkeypatch):
        executor = SerialExecutor(job_runner=sleep_runner)
        FleetRunner(ledger).run_jobs(synth_jobs(2), executor)
        monkeypatch.setenv("REPRO_SERVE", "batched")
        rerun = FleetRunner(ledger)
        rerun.run_jobs(synth_jobs(2), executor)
        assert rerun.executed == 2  # nothing restored: fingerprints moved

    def test_duplicate_jobs_execute_once(self, ledger):
        job = synth_jobs(1)[0]
        runner = FleetRunner(ledger)
        results = runner.run_jobs(
            [job, job, job], SerialExecutor(job_runner=sleep_runner)
        )
        assert runner.executed == 1
        assert len(results) == 3
        assert pickle.dumps(results[0]) == pickle.dumps(results[2])

    def test_parent_format_ledger_resumes_its_journal(self, ledger):
        """A ledger the sharded runner wrote: its journal's done records
        restore, its leases are ignored, and its compaction snapshot is
        never read — episodes moved there re-run, to the same bytes."""
        jobs = synth_jobs(5)
        executor = SerialExecutor(job_runner=sleep_runner)
        results = executor.run_jobs(jobs)
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

        runner = FleetRunner(ledger)
        resumed = runner.run_jobs(jobs, executor)
        assert runner.executed == 3  # 2 and 3 were only leased; 4 sits in .snap
        assert [pickle.dumps(r) for r in resumed] == [pickle.dumps(r) for r in results]
        assert snap.read_bytes() == snapshot + record_line(done(4))
        assert set(JobLedger(ledger.path).load()) == set(prints)


class TestEnvConstruction:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert fleet_from_env() is None

    def test_env_knobs_select_runner(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", f" {tmp_path / 'l.jsonl'} ")
        runner = fleet_from_env()
        assert runner is not None
        assert runner.ledger.path == tmp_path / "l.jsonl"
        assert runner.ledger.flush_seconds == 0.5  # batched by default

    def test_grid_dispatch_routes_through_ledger(self, tmp_path, monkeypatch):
        from repro.experiments.common import ExperimentSettings, measure

        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "grid.jsonl"))
        settings = ExperimentSettings(
            n_trials=2, executor="serial", max_workers=1, difficulty="easy"
        )
        config = get_workload("embodiedgpt").config
        first = measure(config, settings)
        assert (tmp_path / "grid.jsonl").exists()
        second = measure(config, settings)  # restored wholly from ledger
        assert pickle.dumps(first) == pickle.dumps(second)
        monkeypatch.delenv("REPRO_LEDGER")
        direct = measure(config, settings)
        assert pickle.dumps(direct) == pickle.dumps(first)


class TestLedgerEnvKnobs:
    def test_flush_and_compaction_knobs(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(path))
        runner = fleet_from_env()
        assert runner.ledger.flush_seconds == 0.5  # batched by default
        # The retired flush and compaction knobs are inert: the window
        # stays the default and the journal is never snapshotted.
        monkeypatch.setenv("REPRO_FLUSH_SECONDS", "0")
        monkeypatch.setenv("REPRO_COMPACT_RECORDS", "1")
        runner = fleet_from_env()
        assert runner.ledger.flush_seconds == 0.5
        job = synth_jobs(1)[0]
        for index in range(3):
            runner.ledger.append_done(f"fp-{index}", job, sleep_runner(job))
        runner.ledger.flush()
        assert set(JobLedger(path).load()) == {"fp-0", "fp-1", "fp-2"}
        assert not path.with_name(path.name + ".snap").exists()

    def test_io_knobs_do_not_invalidate_fingerprints(self, monkeypatch):
        before = job_fingerprint(synth_jobs(1)[0])
        knobs = knob_fingerprint()
        for knob in (
            "REPRO_FLUSH_SECONDS",
            "REPRO_COMPACT_RECORDS",
            "REPRO_BUDGET_PARTITION",
        ):
            assert knob not in ENV_KNOBS
            monkeypatch.setenv(knob, "7")
        assert job_fingerprint(synth_jobs(1)[0]) == before
        assert knob_fingerprint() == knobs


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
        runner = FleetRunner(ledger)
        results = runner.run_jobs(synth_jobs(2), SerialExecutor(job_runner=sleep_runner))
        assert len(results) == 2 and runner.executed == 2
        assert "no-such-job" not in ledger.load()

    def test_mid_file_garbage_skipped(self, ledger):
        job = synth_jobs(1)[0]
        ledger.append_done("fp-1", job, sleep_runner(job))
        with ledger.path.open("ab") as handle:
            handle.write(b"%% corrupted by a disk hiccup %%\n[1, 2]\n\xff\xfe\n")
        JobLedger(ledger.path, flush_seconds=0).append_done("fp-2", job, sleep_runner(job))
        assert set(JobLedger(ledger.path).load()) == {"fp-1", "fp-2"}


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
