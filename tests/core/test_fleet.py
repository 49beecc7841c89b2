"""Fleet layer tests: ledger resume, fingerprints, sharding, budgets."""

import json
import pickle
import time

import pytest

from repro.core.errors import BudgetExceededError, TrialExecutionError
from repro.core.executor import ParallelExecutor, SerialExecutor
from repro.core.fleet import (
    STATUS_COMPLETE,
    STATUS_IN_PROGRESS,
    STATUS_OVER_BUDGET,
    FleetRunner,
    JobLedger,
    LedgerEntry,
    budget_scope,
    decode_result,
    encode_result,
    fleet_from_env,
    job_fingerprint,
    knob_fingerprint,
    ledger_status,
)
from repro.core.fleet import main as fleet_main
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


@pytest.fixture
def ledger(tmp_path):
    return JobLedger(tmp_path / "ledger.jsonl")


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
        for knob in ("REPRO_WORKERS", "REPRO_TRIALS", "REPRO_SHARDS", "REPRO_LEDGER"):
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
        ledger.append_done("fp1", job, result, shard=0)
        entry = ledger.load()["fp1"]
        assert entry.kind == "done"
        assert entry.prompt_tokens == result.prompt_tokens
        assert pickle.dumps(decode_result(entry.payload)) == pickle.dumps(result)

    def test_done_wins_over_any_lease(self, ledger):
        job = synth_jobs(1)[0]
        result = SerialExecutor(job_runner=sleep_runner).run_jobs([job])[0]
        ledger.append_lease("fp1", shard=1, ttl_seconds=600)
        ledger.append_done("fp1", job, result, shard=0)
        ledger.append_lease("fp1", shard=2, ttl_seconds=600)
        assert ledger.load()["fp1"].kind == "done"

    def test_latest_lease_wins(self, ledger):
        ledger.append_lease("fp1", shard=0, ttl_seconds=1)
        ledger.append_lease("fp1", shard=1, ttl_seconds=600)
        entry = ledger.load()["fp1"]
        assert entry.shard == 1

    def test_torn_trailing_line_is_skipped(self, ledger):
        job = synth_jobs(1)[0]
        result = SerialExecutor(job_runner=sleep_runner).run_jobs([job])[0]
        ledger.append_done("fp1", job, result, shard=0)
        with ledger.path.open("a") as handle:
            handle.write('{"kind": "done", "fingerprint": "fp2", "payl')
        entries = ledger.load()
        assert set(entries) == {"fp1"}

    def test_records_are_readable_json(self, ledger):
        job = synth_jobs(1)[0]
        result = SerialExecutor(job_runner=sleep_runner).run_jobs([job])[0]
        ledger.append_done("fp1", job, result, shard=0)
        record = json.loads(ledger.path.read_text().splitlines()[0])
        assert record["job"] == job.describe()
        assert record["shard"] == 0


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

    def test_crash_mid_sweep_persists_completed_prefix(self, ledger, monkeypatch):
        jobs = synth_jobs(5)
        monkeypatch.setenv(CRASH_SEEDS_KNOB, "4")
        crashing = SerialExecutor(job_runner=crash_seed_runner)
        runner = FleetRunner(ledger)
        with pytest.raises(TrialExecutionError):
            runner.run_jobs(jobs, crashing)
        done = [e for e in ledger.load().values() if e.kind == "done"]
        assert len(done) == 3  # seeds 1-3 completed before the crash

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
        survivors = sum(1 for e in ledger.load().values() if e.kind == "done")
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


class TestSharding:
    def test_partition_covers_all_fingerprints(self, ledger):
        runners = [
            FleetRunner(ledger, shards=3, shard_id=i) for i in range(3)
        ]
        prints = [job_fingerprint(job) for job in synth_jobs(12)]
        for fingerprint in prints:
            owners = [r.owns(fingerprint) for r in runners]
            assert owners.count(True) == 1

    def test_single_process_shard_steals_to_completion(self, ledger):
        jobs = synth_jobs(6)
        shard = FleetRunner(ledger, shards=2, shard_id=0)
        results = shard.run_jobs(jobs, SerialExecutor(job_runner=sleep_runner))
        assert len(results) == 6
        assert shard.executed == 6  # owned partition + stolen remainder

    def test_second_shard_adopts_finished_work(self, ledger):
        jobs = synth_jobs(6)
        executor = SerialExecutor(job_runner=sleep_runner)
        FleetRunner(ledger, shards=2, shard_id=0).run_jobs(jobs, executor)
        late = FleetRunner(ledger, shards=2, shard_id=1)
        results = late.run_jobs(jobs, executor)
        assert late.executed == 0
        assert len(results) == 6

    def test_live_lease_blocks_steal_until_expiry(self, ledger):
        # Lease TTLs are compared on the monotonic clock: the serialized
        # record carries wall time, but _stealable only ever looks at the
        # rebased ``deadline`` so a wall-clock step can't expire (or
        # immortalize) someone else's lease.
        runner = FleetRunner(ledger, shards=2, shard_id=0)
        now = time.monotonic()
        live = LedgerEntry(
            kind="lease", fingerprint="fp", shard=1, deadline=now + 60
        )
        expired = LedgerEntry(
            kind="lease", fingerprint="fp", shard=1, deadline=now - 1
        )
        own = LedgerEntry(
            kind="lease", fingerprint="fp", shard=0, deadline=now + 60
        )
        assert not runner._stealable(live, now)
        assert runner._stealable(expired, now)
        assert runner._stealable(own, now)  # own stale lease from a past crash
        assert runner._stealable(None, now)

    def test_lease_deadline_rebased_from_wall_clock(self, ledger):
        # A replayed lease record's wall-clock expiry is translated into
        # a monotonic deadline at apply time.
        ledger.append_lease("fp-mono", shard=3, ttl_seconds=60)
        entry = ledger.load()["fp-mono"]
        remaining = entry.deadline - time.monotonic()
        assert 55 < remaining <= 60

    def test_shard_validation(self, ledger):
        with pytest.raises(ValueError):
            FleetRunner(ledger, shards=0)
        with pytest.raises(ValueError):
            FleetRunner(ledger, shards=2, shard_id=2)


class TestBudget:
    def test_budget_stops_admission_with_report(self, ledger):
        jobs = synth_jobs(5, prompt_tokens=60, output_tokens=40)
        runner = FleetRunner(ledger, budget_tokens=250)
        with pytest.raises(BudgetExceededError) as excinfo:
            runner.run_jobs(jobs, SerialExecutor(job_runner=sleep_runner))
        # 100 tokens/job against a 250 cap: spend crosses the cap after
        # job 3; everything admitted before that persisted.
        assert runner.executed == 3
        assert sum(1 for e in ledger.load().values() if e.kind == "done") == 3
        report = excinfo.value.report
        assert "3/5" in report
        assert "llama-3-8b" in report
        assert "REPRO_BUDGET_TOKENS" in str(excinfo.value)

    def test_raised_budget_resumes_partial_ledger(self, ledger):
        jobs = synth_jobs(5, prompt_tokens=60, output_tokens=40)
        executor = SerialExecutor(job_runner=sleep_runner)
        with pytest.raises(BudgetExceededError):
            FleetRunner(ledger, budget_tokens=250).run_jobs(jobs, executor)
        resumed = FleetRunner(ledger, budget_tokens=10_000)
        results = resumed.run_jobs(jobs, executor)
        assert resumed.executed == 2
        uninterrupted = SerialExecutor(job_runner=sleep_runner).run_jobs(jobs)
        assert pickle.dumps(aggregate(results)) == pickle.dumps(
            aggregate(uninterrupted)
        )

    def test_spend_counts_prior_ledger_contents(self, ledger):
        executor = SerialExecutor(job_runner=sleep_runner)
        FleetRunner(ledger).run_jobs(
            synth_jobs(2, prompt_tokens=60, output_tokens=40), executor
        )
        # 200 tokens already on the ledger: a 200-token budget admits
        # nothing new.
        fresh = [synthetic_job(name="second-wave", seed=s) for s in (1, 2)]
        runner = FleetRunner(ledger, budget_tokens=200)
        with pytest.raises(BudgetExceededError):
            runner.run_jobs(fresh, executor)
        assert runner.executed == 0

    def test_zero_budget_means_unlimited(self, ledger):
        jobs = synth_jobs(4, prompt_tokens=1000, output_tokens=1000)
        runner = FleetRunner(ledger, budget_tokens=0)
        assert len(runner.run_jobs(jobs, SerialExecutor(job_runner=sleep_runner))) == 4


class TestEnvConstruction:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert fleet_from_env() is None

    def test_env_knobs_select_runner(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "l.jsonl"))
        monkeypatch.setenv("REPRO_SHARDS", "4")
        monkeypatch.setenv("REPRO_SHARD_ID", "2")
        monkeypatch.setenv("REPRO_BUDGET_TOKENS", "5000")
        monkeypatch.setenv("REPRO_LEASE_SECONDS", "7.5")
        monkeypatch.setenv("REPRO_FLEET_POLL", "0.05")
        runner = fleet_from_env()
        assert runner is not None
        assert (runner.shards, runner.shard_id) == (4, 2)
        assert runner.budget_tokens == 5000
        assert runner.lease_seconds == 7.5
        assert runner.poll_seconds == 0.05

    def test_shard_id_must_fit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "l.jsonl"))
        monkeypatch.setenv("REPRO_SHARDS", "2")
        monkeypatch.setenv("REPRO_SHARD_ID", "2")
        with pytest.raises(ValueError, match="REPRO_SHARD_ID"):
            fleet_from_env()

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


class TestIncrementalTail:
    def seed(self, writer, n, name="hist", start=0):
        prints = []
        for index in range(start, start + n):
            job = synthetic_job(name=f"{name}-{index}", seed=index)
            fingerprint = job_fingerprint(job)
            writer.append_done(fingerprint, job, sleep_runner(job), shard=0)
            prints.append(fingerprint)
        return prints

    def test_second_load_reads_only_new_bytes(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        writer = JobLedger(path)
        self.seed(writer, 10)
        reader = JobLedger(path)
        reader.load()
        initial = reader.bytes_read
        assert initial >= path.stat().st_size
        before = path.stat().st_size
        self.seed(writer, 1, name="new", start=10)
        reader.load()
        delta = reader.bytes_read - initial
        assert delta == path.stat().st_size - before  # only the new record
        assert len(reader.load()) == 11

    def test_noop_poll_reads_nothing(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        writer = JobLedger(path)
        self.seed(writer, 3)
        reader = JobLedger(path)
        reader.load()
        read = reader.bytes_read
        for _poll in range(5):
            reader.load()
        assert reader.bytes_read == read

    def test_torn_line_consumed_once_completed(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        writer = JobLedger(path)
        self.seed(writer, 1)
        reader = JobLedger(path)
        assert len(reader.load()) == 1
        record = json.dumps(
            {
                "kind": "lease",
                "fingerprint": "torn-fp",
                "shard": 2,
                "ts": round(time.time(), 3),
                "expires": time.time() + 60,
            }
        ).encode()
        with path.open("ab") as handle:  # a writer died mid-append
            handle.write(record[:10])
        assert len(reader.load()) == 1  # torn tail stays unconsumed
        with path.open("ab") as handle:
            handle.write(record[10:] + b"\n")
        entries = reader.load()
        assert entries["torn-fp"].kind == "lease"
        assert entries["torn-fp"].shard == 2


class TestBatchedFlush:
    def test_buffer_invisible_to_others_until_flush(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        buffered = JobLedger(path, flush_seconds=60)
        buffered.append_lease("fp-buf", shard=0, ttl_seconds=60)
        assert "fp-buf" in buffered.load()  # own view is current
        other = JobLedger(path)
        assert "fp-buf" not in other.load()
        buffered.flush()
        assert "fp-buf" in other.load()

    def test_elapsed_window_triggers_flush(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        buffered = JobLedger(path, flush_seconds=0.01)
        buffered.append_lease("fp-a", shard=0, ttl_seconds=60)
        time.sleep(0.02)
        buffered.append_lease("fp-b", shard=0, ttl_seconds=60)
        other = JobLedger(path)
        assert set(other.load()) == {"fp-a", "fp-b"}

    def test_flush_heals_foreign_torn_tail(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b'{"kind":"lease","fingerprint":"half')  # no newline
        writer = JobLedger(path)
        writer.append_lease("fp-after", shard=1, ttl_seconds=60)
        reader = JobLedger(path)
        entries = reader.load()
        # The torn line was terminated before the append, so the new
        # record parses; the half record is skipped as corrupt.
        assert "fp-after" in entries
        assert "half" not in entries

    def test_unflushed_records_are_the_crash_loss_bound(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        buffered = JobLedger(path, flush_seconds=60)
        buffered.append_lease("fp-lost", shard=0, ttl_seconds=60)
        del buffered  # crash before any flush: loss <= one flush window
        assert not path.exists() or path.stat().st_size == 0


class TestCompaction:
    def churn(self, writer, n, start=0):
        prints = []
        for index in range(start, start + n):
            job = synthetic_job(name=f"churn-{index}", seed=index)
            fingerprint = job_fingerprint(job)
            writer.append_lease(fingerprint, shard=0, ttl_seconds=60)
            writer.append_done(fingerprint, job, sleep_runner(job), shard=0)
            prints.append(fingerprint)
        return prints

    def test_compaction_snapshots_and_truncates(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        writer = JobLedger(path, compact_records=4)
        prints = self.churn(writer, 6)
        writer.flush()
        assert writer.compactions >= 1
        assert writer.generation >= 1
        assert writer.snap_path.exists()
        assert path.stat().st_size < writer.bytes_appended
        fresh = JobLedger(path)
        entries = fresh.load()
        assert all(entries[fp].kind == "done" for fp in prints)
        assert fresh.generation == writer.generation

    def test_reader_with_stale_offset_recovers(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        writer = JobLedger(path, compact_records=4)
        first = self.churn(writer, 2)
        reader = JobLedger(path)
        assert len(reader.load()) == 2
        more = self.churn(writer, 4, start=2)  # pushes garbage past 4
        writer.flush()
        assert writer.compactions >= 1
        entries = reader.load()  # offset now points past the truncated file
        assert all(entries[fp].kind == "done" for fp in first + more)

    def test_crash_between_rename_and_truncate_replays_idempotently(
        self, tmp_path
    ):
        path = tmp_path / "ledger.jsonl"
        writer = JobLedger(path, compact_records=4)
        prints = self.churn(writer, 6)
        journal_before = path.read_bytes()
        writer.flush()
        assert writer.compactions >= 1
        # Simulate dying after the snapshot rename but before the
        # truncate: the journal still holds every pre-compaction record.
        path.write_bytes(journal_before)
        fresh = JobLedger(path)
        entries = fresh.load()
        assert sum(1 for e in entries.values() if e.kind == "done") == 6
        assert all(entries[fp].kind == "done" for fp in prints)

    def test_truncated_snapshot_degrades_and_rerun_heals(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        writer = JobLedger(path, compact_records=4)
        jobs = [synthetic_job(name=f"churn-{i}", seed=i) for i in range(6)]
        self.churn(writer, 6)
        writer.flush()
        snap = writer.snap_path
        blob = snap.read_bytes()
        snap.write_bytes(blob[: len(blob) // 2])  # torn snapshot
        fresh = JobLedger(path)
        entries = fresh.load()  # must not raise
        # Best effort: records the torn half lost are gone, everything
        # still parseable (journal tail + surviving snapshot lines) is
        # applied...
        survivors = sum(1 for e in entries.values() if e.kind == "done")
        assert 0 < survivors < 6
        # ...and a rerun self-heals: restored episodes are adopted, the
        # lost ones re-execute, and the ledger ends complete.
        runner = FleetRunner(JobLedger(path))
        results = runner.run_jobs(jobs, SerialExecutor(job_runner=sleep_runner))
        assert len(results) == 6
        assert runner.executed == 6 - survivors
        final = JobLedger(path).load()
        assert all(final[job_fingerprint(job)].kind == "done" for job in jobs)

    def test_corrupt_snapshot_header_reported_none(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        writer = JobLedger(path, compact_records=4)
        self.churn(writer, 6)
        writer.flush()
        writer.snap_path.write_bytes(b"not json at all\n")
        fresh = JobLedger(path)
        fresh.load()  # must not raise
        assert fresh.generation is None


class TestCorruptLedger:
    def test_duplicate_done_conflicting_payloads_first_wins(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        writer = JobLedger(path)
        job = synthetic_job(name="dup", seed=1, prompt_tokens=10, output_tokens=5)
        first = sleep_runner(job)
        conflicting = sleep_runner(
            synthetic_job(name="dup", seed=1, prompt_tokens=999, output_tokens=999)
        )
        writer.append_done("fp-dup", job, first, shard=0)
        writer.append_done("fp-dup", job, conflicting, shard=1)
        for ledger in (writer, JobLedger(path)):
            entry = ledger.load()["fp-dup"]
            assert entry.prompt_tokens == 10  # replay order, deterministic
            assert entry.shard == 0
            assert pickle.dumps(decode_result(entry.payload)) == pickle.dumps(first)

    def test_lease_for_unknown_fingerprint_tolerated(self, ledger):
        ledger.append_lease("no-such-job", shard=0, ttl_seconds=0.0)
        jobs = synth_jobs(2)
        runner = FleetRunner(ledger)
        results = runner.run_jobs(jobs, SerialExecutor(job_runner=sleep_runner))
        assert len(results) == 2 and runner.executed == 2
        assert ledger.load()["no-such-job"].kind == "lease"

    def test_mid_file_garbage_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        writer = JobLedger(path)
        writer.append_lease("fp-1", shard=0, ttl_seconds=60)
        with path.open("ab") as handle:
            handle.write(b"%% corrupted by a disk hiccup %%\n")
        writer2 = JobLedger(path)
        writer2.append_lease("fp-2", shard=1, ttl_seconds=60)
        entries = JobLedger(path).load()
        assert set(entries) == {"fp-1", "fp-2"}


class TestStatusCLI:
    def complete_ledger(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        runner = FleetRunner(JobLedger(path))
        runner.run_jobs(synth_jobs(3), SerialExecutor(job_runner=sleep_runner))
        return path

    def test_complete_exits_zero(self, tmp_path, capsys):
        path = self.complete_ledger(tmp_path)
        assert fleet_main(["status", str(path)]) == STATUS_COMPLETE
        out = capsys.readouterr().out
        assert "complete" in out
        assert "3 done" in out
        assert "shard 0" in out

    def test_empty_ledger_is_in_progress(self, tmp_path):
        report, code = ledger_status(tmp_path / "missing.jsonl")
        assert code == STATUS_IN_PROGRESS
        assert "empty" in report

    def test_pending_lease_is_in_progress(self, tmp_path):
        path = self.complete_ledger(tmp_path)
        writer = JobLedger(path)
        writer.append_lease("fp-in-flight", shard=1, ttl_seconds=600)
        report, code = ledger_status(path)
        assert code == STATUS_IN_PROGRESS
        assert "1 leased (live)" in report

    def test_dead_lease_is_in_progress_and_reported(self, tmp_path):
        path = self.complete_ledger(tmp_path)
        writer = JobLedger(path)
        writer.append_lease("fp-lost", shard=2, ttl_seconds=0.0)
        report, code = ledger_status(path)
        assert code == STATUS_IN_PROGRESS
        assert "dead lease" in report
        assert "stealable" in report

    def test_over_budget_exits_two(self, tmp_path, monkeypatch):
        path = self.complete_ledger(tmp_path)  # 3 x 100 tokens
        monkeypatch.setenv("REPRO_BUDGET_TOKENS", "250")
        report, code = ledger_status(path)
        assert code == STATUS_OVER_BUDGET
        assert "OVER BUDGET" in report
        monkeypatch.setenv("REPRO_BUDGET_TOKENS", "50000")
        _report, code = ledger_status(path)
        assert code == STATUS_COMPLETE

    def test_report_prices_spend_without_decoding_payloads(self, tmp_path):
        path = self.complete_ledger(tmp_path)
        report, _code = ledger_status(path)
        assert "llama-3-8b $" in report
        assert "300 spent" in report


class TestBudgetScopes:
    def test_scope_validates_tokens(self):
        with pytest.raises(ValueError):
            with budget_scope(0):
                pass

    def test_scope_selects_wave_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger.jsonl"))
        monkeypatch.setenv("REPRO_BUDGET_TOKENS", "9000")
        with budget_scope(500):
            runner = fleet_from_env()
            assert runner.budget_tokens == 500
            assert runner.budget_scope == "wave"
        runner = fleet_from_env()
        assert runner.budget_tokens == 9000
        assert runner.budget_scope == "ledger"

    def test_scopes_nest_and_restore(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger.jsonl"))
        with budget_scope(100):
            with budget_scope(50):
                assert fleet_from_env().budget_tokens == 50
            assert fleet_from_env().budget_tokens == 100

    def test_wave_budget_ignores_foreign_ledger_spend(self, ledger):
        # Another figure's episodes already cost 10k tokens on the
        # shared ledger...
        foreign = FleetRunner(ledger)
        foreign.run_jobs(
            [synthetic_job(name="foreign", seed=9, prompt_tokens=9000,
                           output_tokens=1000)],
            SerialExecutor(job_runner=sleep_runner),
        )
        jobs = synth_jobs(5, prompt_tokens=60, output_tokens=40)
        # ...a ledger-scoped budget of 250 would trip before admitting
        # anything; the wave scope meters only this call's own jobs.
        with pytest.raises(BudgetExceededError):
            FleetRunner(ledger, budget_tokens=250).run_jobs(
                jobs, SerialExecutor(job_runner=sleep_runner)
            )
        wave = FleetRunner(ledger, budget_tokens=250, budget_scope="wave")
        with pytest.raises(BudgetExceededError) as excinfo:
            wave.run_jobs(jobs, SerialExecutor(job_runner=sleep_runner))
        assert wave.executed == 3  # 100 tokens/job against its own 250
        assert "partitioned wave budget" in str(excinfo.value)

    def test_wave_budget_counts_restored_own_jobs(self, ledger):
        jobs = synth_jobs(4, prompt_tokens=60, output_tokens=40)
        FleetRunner(ledger).run_jobs(
            jobs[:3], SerialExecutor(job_runner=sleep_runner)
        )
        # 3 restored jobs (300 tokens) already exceed the 250 wave share:
        # nothing new is admitted, restored results still come back.
        wave = FleetRunner(ledger, budget_tokens=250, budget_scope="wave")
        with pytest.raises(BudgetExceededError):
            wave.run_jobs(jobs, SerialExecutor(job_runner=sleep_runner))
        assert wave.executed == 0

    def test_scope_kind_validates(self, ledger):
        with pytest.raises(ValueError):
            FleetRunner(ledger, budget_scope="figure")


class TestLedgerEnvKnobs:
    def test_flush_and_compaction_knobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger.jsonl"))
        runner = fleet_from_env()
        assert runner.ledger.flush_seconds == 0.5  # batched by default
        assert runner.ledger.compact_records == 256
        monkeypatch.setenv("REPRO_FLUSH_SECONDS", "0")
        monkeypatch.setenv("REPRO_COMPACT_RECORDS", "16")
        runner = fleet_from_env()
        assert runner.ledger.flush_seconds == 0.0
        assert runner.ledger.compact_records == 16

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
