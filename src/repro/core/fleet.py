"""Sharded fleet runner: durable job ledger, checkpoint/resume, budgets.

The paper's scalability analysis (Fig. 7) needs suite runs at ~100x the
trial counts a single barriered batch can carry.  This module grows the
executor layer into a *fleet* layer with three properties a run of that
size cannot do without:

- **Episode-level checkpoint/resume** — every completed
  :class:`~repro.core.metrics.EpisodeResult` persists to a durable JSONL
  *ledger* (the executor's completion-ordered
  :meth:`~repro.core.executor.TrialExecutor.run_stream` makes that
  possible); a restarted run skips everything the ledger already holds
  and produces aggregates byte-identical to an uninterrupted run.
- **Cross-machine sharding with lease-based work stealing** — with
  ``REPRO_SHARDS=N`` / ``REPRO_SHARD_ID=i`` each process owns the jobs
  whose content fingerprint hashes to its shard; after finishing its own
  partition it *steals* unclaimed or lease-expired foreign jobs, and
  polls the shared ledger for the rest, so every shard eventually
  returns the same complete aggregates and a dead shard's work is
  re-claimed instead of lost.  (Work stealing may duplicate an episode
  when a lease outlives its TTL mid-run; episodes are deterministic, so
  duplicates write identical records and correctness is unaffected —
  size ``REPRO_LEASE_SECONDS`` above the longest episode to avoid the
  wasted work.)  ``scripts/fleet_drill.py`` drills the real thing: N
  shard *processes* against one ledger, one SIGKILLed mid-sweep.
- **Cost governance** — completed episodes carry per-deployment token
  accounting (:mod:`repro.llm.costs`); ``REPRO_BUDGET_TOKENS`` caps the
  ledger-wide token spend, and when the cap trips the runner stops
  *admitting* new jobs, drains what is in flight (persisting it), and
  raises :class:`~repro.core.errors.BudgetExceededError` with a
  partial-ledger report.  :func:`budget_scope` partitions one budget
  across suite sections so a runaway figure cannot starve the rest.

The ledger I/O is built for real N-process contention:

- **Incremental tail reads** — each :class:`JobLedger` remembers the
  byte offset it has consumed and keeps an in-memory index; a poll
  parses only the records appended since its last read (torn trailing
  lines are left unconsumed until their writer finishes them), so
  per-episode read volume is O(new records), not O(history).
  ``benchmarks/bench_fleet.py`` gates the reduction.
- **Batched durable appends** — completions and leases stage in a write
  buffer and flush as *one* flock'd ``write``+``fsync`` when the buffer
  fills or ``REPRO_FLUSH_SECONDS`` elapses (0 = flush every append);
  a crash loses at most one flush window, and the runner flushes on
  every exit path so drained results always persist.
- **Crash-safe compaction** — once superseded records (dead leases,
  leases answered by a ``done``, duplicates) pass
  ``REPRO_COMPACT_RECORDS``, the flushing shard snapshots the live
  state to ``<ledger>.snap`` via temp-file + atomic rename, bumps the
  snapshot's *generation counter*, and truncates the JSONL — readers
  re-check the generation around every tail read, so a concurrent
  shard can never mistake a post-compaction tail for its own stale
  offset.  A crash between rename and truncate only leaves records
  that replay idempotently over the snapshot.

Jobs are keyed by a **content fingerprint**: a SHA-256 over the
canonical JSON of ``(config, task, seed)``, the job's resolved
:class:`~repro.core.settings.RunSettings`, and
:data:`SEMANTICS_VERSION`.  Every value that can change a result is in
the job itself — ``serve="batched"`` or ``overlap=True``, whether it
came from the environment, an explicit setting, or a config pin,
changes every fingerprint — so a stale ledger can never leak results
produced under different semantics into a resumed run.  Execution-
*shape* knobs (worker counts, shard layout, flush/compaction tuning,
the budget itself) are not part of a job: they change how jobs run,
never what an episode computes.

Lease expiry bookkeeping runs on ``time.monotonic()`` — a wall-clock
step (NTP, DST, a VM migration) cannot prematurely expire or immortalize
a lease mid-process.  Serialized records keep wall-clock times only
(``expires``/``ts``), which cross process boundaries; each reader
rebases them onto its own monotonic clock at apply time.

The layer is opt-in and invisible when off: ``REPRO_LEDGER`` unset means
:func:`fleet_from_env` returns ``None`` and the grid helpers dispatch
straight to their executor, exactly as before.  ``python -m
repro.core.fleet status <ledger>`` reports progress, per-shard
throughput, dead leases, and spend-vs-budget, with exit codes cron can
branch on (0 complete, 1 in progress, 2 over budget).
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import os
import pickle
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.core.envknobs import float_knob, int_knob, raw_knob
from repro.core.errors import BudgetExceededError
from repro.core.settings import ENV_KNOBS

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.core.executor import TrialExecutor, TrialJob
    from repro.core.metrics import EpisodeResult

try:  # pragma: no cover - fcntl is present on every supported platform
    import fcntl
except ImportError:  # pragma: no cover - windows fallback: no inter-process lock
    fcntl = None  # type: ignore[assignment]

#: Part of every job fingerprint.  Bump it with any change that alters
#: what an episode computes under unchanged settings, so a ledger written
#: by older code can never resume silently.
SEMANTICS_VERSION = 1

#: Defaults for the fleet knobs (documented in docs/performance.md).
DEFAULT_LEASE_SECONDS = 300.0
DEFAULT_POLL_SECONDS = 0.2
#: Flush window for batched ledger appends when the fleet layer builds
#: the ledger (:func:`fleet_from_env`); a directly constructed
#: ``JobLedger`` defaults to 0 (every append durable immediately).
DEFAULT_FLUSH_SECONDS = 0.5
#: Buffered records that force a flush before the window elapses.
FLUSH_RECORDS = 64
#: Superseded-record threshold at which the fleet layer compacts; a
#: directly constructed ``JobLedger`` defaults to 0 (never compact).
DEFAULT_COMPACT_RECORDS = 256

#: Sentinel generation meaning "no snapshot state loaded yet".
_GEN_UNLOADED = -1


def knob_fingerprint() -> dict[str, str]:
    """The result-affecting ``REPRO_*`` variables exported in this process.

    For run records only (empty when none is exported); job fingerprints
    hash each job's resolved settings, not the environment.
    """
    return {name: value for name in ENV_KNOBS if (value := raw_knob(name))}


def job_fingerprint(job: "TrialJob") -> str:
    """Content fingerprint of one trial job, its settings included."""
    payload = {
        "config": job.config.fingerprint_payload(),
        "task": asdict(job.task),
        "seed": job.seed,
        # Flat primitives: the instance dict is the canonical payload (and
        # ~100x cheaper than ``asdict`` on the resume path).
        "settings": vars(job.settings),
        "semantics": SEMANTICS_VERSION,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def encode_result(result: "EpisodeResult") -> str:
    """Exact round-trip encoding of an episode result for the ledger.

    Pickle inside zlib inside base64: the JSON envelope stays readable
    (fingerprint, shard, token counts), while the payload preserves
    every float bit and nested dataclass — the property that makes
    resumed aggregates byte-identical to uninterrupted ones.
    """
    return base64.b64encode(zlib.compress(pickle.dumps(result), 6)).decode("ascii")


def decode_result(payload: str) -> "EpisodeResult":
    return pickle.loads(zlib.decompress(base64.b64decode(payload.encode("ascii"))))


@dataclass
class LedgerEntry:
    """Latest known state of one fingerprint in the ledger."""

    kind: str  # "done" | "lease"
    fingerprint: str
    shard: int
    expires: float = 0.0  # lease only: absolute wall-clock unix time
    #: Lease only: the expiry rebased onto *this process's* monotonic
    #: clock at apply time — what steal decisions compare against, so a
    #: wall-clock step between reads cannot flip lease liveness.
    deadline: float = 0.0
    ts: float = 0.0  # wall-clock write time (throughput reporting only)
    prompt_tokens: int = 0  # done only
    output_tokens: int = 0  # done only
    job: str = ""  # done only: human-readable job description
    payload: str = ""  # done only: encoded EpisodeResult
    #: done only: per-deployment ``{model: [prompt, output]}`` token
    #: split, kept in the JSON envelope so ``fleet status`` can price a
    #: ledger without decoding any pickled payload.
    models: dict[str, list[int]] = field(default_factory=dict)


class JobLedger:
    """Append-only JSONL ledger shared by every shard of a fleet run.

    One line per event: ``done`` records carry the encoded episode
    result and its token counts; ``lease`` records claim a fingerprint
    for a shard until an absolute expiry.  Records **stage** in a write
    buffer (applied to this instance's in-memory index immediately) and
    **flush** as one exclusive-``flock`` ``write``+``fsync`` when the
    buffer fills, ``flush_seconds`` elapses, or :meth:`flush` is called
    — with ``flush_seconds=0`` (the constructor default) every append
    flushes immediately.  Concurrent shards on a shared filesystem
    therefore interleave whole batches of lines; a torn trailing line
    from a crashed writer is healed (newline-terminated) by the next
    flusher so it can never fuse with a later record.

    Reads are **incremental**: :meth:`load` replays only the bytes
    appended since the previous call on top of the in-memory index
    (``done`` wins permanently and first-done-wins on duplicates; among
    leases the latest expiry stands), so polling cost tracks new
    records, not ledger history.  When superseded records pass
    ``compact_records`` (> 0), the flushing holder of the lock writes
    the live state to ``<path>.snap`` (temp file + atomic rename, with
    a bumped generation counter in the header) and truncates the JSONL;
    every reader re-checks the generation around its tail read and
    reloads from the snapshot when it moved, so no reader can apply a
    stale byte offset to a compacted file.

    ``bytes_read`` / ``bytes_appended`` / ``loads`` count I/O for the
    contention benchmark and for drill stats.
    """

    def __init__(
        self,
        path: Path | str,
        flush_seconds: float = 0.0,
        compact_records: int = 0,
    ):
        if flush_seconds < 0:
            raise ValueError(f"flush_seconds must be >= 0: {flush_seconds}")
        if compact_records < 0:
            raise ValueError(f"compact_records must be >= 0: {compact_records}")
        self.path = Path(path)
        self.flush_seconds = flush_seconds
        self.compact_records = compact_records
        # --- I/O accounting (benchmarks, drill stats) ---
        self.bytes_read = 0
        self.bytes_appended = 0
        self.loads = 0
        self.compactions = 0
        # --- incremental reader state ---
        self._entries: dict[str, LedgerEntry] = {}
        self._offset = 0  # bytes of the live JSONL already applied
        self._generation: int | None = _GEN_UNLOADED
        self._garbage = 0  # superseded/unusable records seen in the tail
        # --- write buffer ---
        self._buffer: list[bytes] = []
        self._last_flush = time.monotonic()

    @property
    def snap_path(self) -> Path:
        """The compaction snapshot living next to the JSONL."""
        return self.path.with_name(self.path.name + ".snap")

    @property
    def generation(self) -> int | None:
        """Snapshot generation last applied (0 = none, None = corrupt)."""
        return self._generation if self._generation != _GEN_UNLOADED else 0

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def load(self) -> dict[str, LedgerEntry]:
        """Current ledger state: in-memory index + newly appended tail.

        Returns the live index (treat as read-only; it is refreshed in
        place by later loads).  Tolerant of every corruption the drills
        inject: torn trailing lines stay unconsumed until completed,
        mid-file garbage is skipped, a truncated or corrupt snapshot
        degrades to best-effort replay instead of raising.
        """
        self.loads += 1
        # A compaction can land between our generation probe and the
        # tail read; re-checking the generation afterwards and retrying
        # bounds the race without readers taking the write lock.
        for _attempt in range(8):
            generation = self._snapshot_generation()
            if generation != self._generation:
                self._reset()
                self._load_snapshot(generation)
            if self._consume_tail() and self._snapshot_generation() == generation:
                break
            self._generation = _GEN_UNLOADED  # force a clean reload
        # A reset above rebuilds the index from disk only; staged records
        # still in the write buffer must stay visible to their writer
        # (re-applying flushed ones is a no-op by the apply rules).
        for line in self._buffer:
            self._apply_line(line, count_garbage=False)
        return self._entries

    def _reset(self) -> None:
        self._entries = {}
        self._offset = 0
        self._generation = _GEN_UNLOADED
        self._garbage = 0

    def _snapshot_generation(self) -> int | None:
        """Generation in the snapshot header: 0 = none, None = corrupt."""
        try:
            with self.snap_path.open("rb") as handle:
                header = handle.readline(4096)
        except FileNotFoundError:
            return 0
        self.bytes_read += len(header)
        try:
            record = json.loads(header)
            if record.get("kind") != "snap":
                return None
            return int(record["generation"])
        except (ValueError, KeyError, TypeError):
            return None

    def _load_snapshot(self, generation: int | None) -> None:
        """Replay the snapshot records (best effort on corruption)."""
        self._generation = generation
        if generation == 0:  # no snapshot on disk
            return
        try:
            blob = self.snap_path.read_bytes()
        except FileNotFoundError:
            self._generation = 0
            return
        self.bytes_read += len(blob)
        lines = blob.split(b"\n")
        # lines[0] is the header (already parsed by the generation
        # probe); a truncated snapshot simply yields fewer parseable
        # records — replay what survives rather than refusing to start.
        for line in lines[1:]:
            self._apply_line(line, count_garbage=False)

    def _consume_tail(self) -> bool:
        """Apply bytes appended since the last read.  False = offset stale."""
        try:
            with self.path.open("rb") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                if size < self._offset:
                    return False  # truncated under us: missed a compaction
                if size == self._offset:
                    return True
                handle.seek(self._offset)
                chunk = handle.read(size - self._offset)
        except FileNotFoundError:
            return self._offset == 0
        self.bytes_read += len(chunk)
        # Consume only whole lines; a torn trailing line stays before
        # the offset until its writer (or a healing flusher) finishes it.
        consumed = chunk.rfind(b"\n") + 1
        if consumed == 0:
            return True
        for line in chunk[:consumed].split(b"\n"):
            self._apply_line(line)
        self._offset += consumed
        return True

    def _apply_line(self, line: bytes, count_garbage: bool = True) -> None:
        line = line.strip()
        if not line:
            return
        try:
            record = json.loads(line)
        except (ValueError, UnicodeDecodeError):
            if count_garbage:
                self._garbage += 1  # torn/corrupt line already terminated
            return
        self._apply(record, count_garbage=count_garbage)

    def _apply(self, record: dict, count_garbage: bool = True) -> None:
        """Fold one record into the index.

        Idempotent replay rules (deterministic for every reader in file
        order): ``done`` is final and first-done-wins on duplicates;
        among leases the latest expiry stands.  Records that change
        nothing (our own flushed lines read back, a superseded lease, a
        duplicate done) count toward the compaction pressure.
        """

        def garbage() -> None:
            if count_garbage:
                self._garbage += 1

        fingerprint = record.get("fingerprint", "")
        kind = record.get("kind", "")
        if not fingerprint or kind not in ("done", "lease"):
            garbage()
            return
        current = self._entries.get(fingerprint)
        if current is not None and current.kind == "done":
            garbage()  # done is final; later done/lease records are dead weight
            return
        if kind == "done":
            if current is not None:
                garbage()  # the lease this done answers is now dead weight
            self._entries[fingerprint] = LedgerEntry(
                kind="done",
                fingerprint=fingerprint,
                shard=int(record.get("shard", 0)),
                ts=float(record.get("ts", 0.0)),
                prompt_tokens=int(record.get("prompt_tokens", 0)),
                output_tokens=int(record.get("output_tokens", 0)),
                job=record.get("job", ""),
                payload=record.get("payload", ""),
                models={
                    model: [int(split[0]), int(split[1])]
                    for model, split in record.get("models", {}).items()
                    if isinstance(split, (list, tuple)) and len(split) == 2
                },
            )
        else:
            expires = float(record.get("expires", 0.0))
            if current is None or expires >= current.expires:
                if current is not None and current.expires != expires:
                    garbage()  # the shorter lease is superseded
                # Wall-clock expiry rebased onto this process's
                # monotonic clock: steal decisions stay correct across
                # wall-clock steps (satellite: monotonic lease TTLs).
                self._entries[fingerprint] = LedgerEntry(
                    kind="lease",
                    fingerprint=fingerprint,
                    shard=int(record.get("shard", 0)),
                    expires=expires,
                    deadline=time.monotonic() + (expires - time.time()),
                    ts=float(record.get("ts", 0.0)),
                )
            else:
                garbage()

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def append_done(
        self, fingerprint: str, job: "TrialJob", result: "EpisodeResult", shard: int
    ) -> None:
        self._stage(
            {
                "kind": "done",
                "fingerprint": fingerprint,
                "shard": shard,
                "ts": round(time.time(), 3),
                "job": job.describe(),
                "prompt_tokens": result.prompt_tokens,
                "output_tokens": result.output_tokens,
                "models": {
                    model: [prompt, output]
                    for model, (prompt, output) in sorted(
                        result.deployment_tokens.items()
                    )
                },
                "payload": encode_result(result),
            }
        )

    def append_lease(self, fingerprint: str, shard: int, ttl_seconds: float) -> None:
        self._stage(
            {
                "kind": "lease",
                "fingerprint": fingerprint,
                "shard": shard,
                "ts": round(time.time(), 3),
                "expires": time.time() + ttl_seconds,
            }
        )

    def _stage(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        self._buffer.append(line.encode("utf-8"))
        # The writer's own view is current immediately; replaying the
        # flushed line from disk later is a no-op by the apply rules.
        self._apply(record)
        if (
            self.flush_seconds <= 0
            or len(self._buffer) >= FLUSH_RECORDS
            or time.monotonic() - self._last_flush >= self.flush_seconds
        ):
            self.flush()

    def flush(self) -> None:
        """Write every staged record as one locked append (then fsync).

        Also the compaction point: holding the exclusive lock anyway,
        the flusher checks the superseded-record pressure and rewrites
        the snapshot + truncates the JSONL when it passes the threshold.
        """
        if not self._buffer and not self._compaction_due():
            self._last_flush = time.monotonic()
            return
        payload = b"".join(self._buffer)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            size = os.fstat(fd).st_size
            if size > 0 and os.pread(fd, 1, size - 1) != b"\n":
                # Heal a crashed writer's torn tail so it parses as one
                # corrupt line instead of fusing with our first record.
                os.write(fd, b"\n")
                size += 1
            if payload:
                os.write(fd, payload)
                os.fsync(fd)
                self.bytes_appended += len(payload)
                if self._offset == size:
                    # Nothing foreign between our index and our write:
                    # skip re-reading our own lines on the next poll.
                    self._offset = size + len(payload)
            self._buffer.clear()
            self._last_flush = time.monotonic()
            if self._compaction_due():
                self._consume_tail()  # index must be complete to snapshot
                self._compact(fd)
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def _compaction_due(self) -> bool:
        if self.compact_records <= 0:
            return False
        now = time.monotonic()
        expired = sum(
            1
            for entry in self._entries.values()
            if entry.kind == "lease" and entry.deadline <= now
        )
        return self._garbage + expired >= self.compact_records

    def _entry_record(self, entry: LedgerEntry) -> dict:
        if entry.kind == "done":
            return {
                "kind": "done",
                "fingerprint": entry.fingerprint,
                "shard": entry.shard,
                "ts": entry.ts,
                "job": entry.job,
                "prompt_tokens": entry.prompt_tokens,
                "output_tokens": entry.output_tokens,
                "models": entry.models,
                "payload": entry.payload,
            }
        return {
            "kind": "lease",
            "fingerprint": entry.fingerprint,
            "shard": entry.shard,
            "ts": entry.ts,
            "expires": entry.expires,
        }

    def _compact(self, ledger_fd: int) -> None:
        """Snapshot live state + truncate the JSONL (lock already held).

        Write order makes every crash point safe: the temp snapshot is
        fsynced before the atomic rename, and a crash after the rename
        but before the truncate only leaves JSONL records that replay
        idempotently over the new snapshot.
        """
        # _GEN_UNLOADED (a writer that never load()ed) and None (corrupt
        # header) both mean "no applied snapshot": the first real
        # generation must be >= 1, because 0 is the "no snapshot" probe
        # value readers skip loading for.
        current = self._generation if (self._generation or 0) > 0 else 0
        new_generation = current + 1
        now = time.monotonic()
        survivors = {
            fingerprint: entry
            for fingerprint, entry in self._entries.items()
            if entry.kind == "done" or entry.deadline > now  # drop dead leases
        }
        lines = [
            json.dumps(
                {"kind": "snap", "generation": new_generation, "records": len(survivors)},
                sort_keys=True,
                separators=(",", ":"),
            )
        ]
        lines.extend(
            json.dumps(self._entry_record(survivors[f]), sort_keys=True, separators=(",", ":"))
            for f in sorted(survivors)
        )
        blob = ("\n".join(lines) + "\n").encode("utf-8")
        tmp_path = self.snap_path.with_name(self.snap_path.name + ".tmp")
        tmp_fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(tmp_fd, blob)
            os.fsync(tmp_fd)
        finally:
            os.close(tmp_fd)
        os.replace(tmp_path, self.snap_path)
        os.ftruncate(ledger_fd, 0)
        self.bytes_appended += len(blob)
        self.compactions += 1
        self._entries = survivors
        self._generation = new_generation
        self._offset = 0
        self._garbage = 0


# ---------------------------------------------------------------------- #
# Budget partitioning
# ---------------------------------------------------------------------- #

_BUDGET_SCOPE = threading.local()


@contextmanager
def budget_scope(tokens: int) -> Iterator[None]:
    """Run the calling thread's fleet dispatches under a *wave* budget.

    Inside the scope, :func:`fleet_from_env` builds runners whose budget
    is ``tokens`` and whose spend accounting covers only the jobs of the
    current ``run_jobs`` call (restored + executed) rather than the
    whole ledger — the per-figure partitioning the suite uses so one
    runaway section exhausts its own share instead of starving every
    other section's admission.  Thread-local and reentrant (the inner
    scope wins); no effect while ``REPRO_LEDGER`` is unset.
    """
    if tokens < 1:
        raise ValueError(f"budget_scope tokens must be >= 1: {tokens}")
    previous = getattr(_BUDGET_SCOPE, "tokens", None)
    _BUDGET_SCOPE.tokens = tokens
    try:
        yield
    finally:
        _BUDGET_SCOPE.tokens = previous


def _scoped_budget() -> int | None:
    return getattr(_BUDGET_SCOPE, "tokens", None)


class FleetRunner:
    """Dispatch trial jobs through a ledger with sharding and budgets.

    One instance per :func:`fleet_from_env` call; stateless between
    ``run_jobs`` calls except for the ledger file itself, so suite
    sections (possibly on concurrent threads) can each resolve their own
    runner against one shared ledger.

    ``budget_scope`` selects what the token budget meters: ``"ledger"``
    (the default) counts every done record on the shared ledger —
    a global cap across shards and restarts — while ``"wave"`` counts
    only this call's own jobs, which is what per-figure partitioning
    needs (one section's spend must not consume another's share).
    """

    def __init__(
        self,
        ledger: JobLedger,
        shards: int = 1,
        shard_id: int = 0,
        budget_tokens: int = 0,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        poll_seconds: float = DEFAULT_POLL_SECONDS,
        budget_scope: str = "ledger",
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1: {shards}")
        if not 0 <= shard_id < shards:
            raise ValueError(f"shard_id must be in [0, {shards}): {shard_id}")
        if budget_tokens < 0:
            raise ValueError(f"budget_tokens must be >= 0: {budget_tokens}")
        if budget_scope not in ("ledger", "wave"):
            raise ValueError(
                f"budget_scope must be 'ledger' or 'wave': {budget_scope!r}"
            )
        self.ledger = ledger
        self.shards = shards
        self.shard_id = shard_id
        self.budget_tokens = budget_tokens
        self.lease_seconds = lease_seconds
        self.poll_seconds = poll_seconds
        self.budget_scope = budget_scope
        #: Episodes actually executed (not restored) by this runner —
        #: an engagement counter for tests and the resume smoke check.
        self.executed = 0

    def owns(self, fingerprint: str) -> bool:
        """Whether this shard's partition contains the fingerprint."""
        return int(fingerprint[:16], 16) % self.shards == self.shard_id

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def run_jobs(
        self, jobs: list["TrialJob"], executor: "TrialExecutor"
    ) -> list["EpisodeResult"]:
        """Run (or restore) every job; results in submission order.

        The full wave pipelines through ``executor.run_stream`` —
        completed episodes persist to the ledger as they finish (batched
        into flush windows), and every exit path — success, crash,
        budget trip — flushes the buffer, so a drained episode is never
        lost to an exception.  Raises :class:`BudgetExceededError` after
        draining in-flight work if the token budget trips.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        prints = [job_fingerprint(job) for job in jobs]
        indices_by_print: dict[str, list[int]] = {}
        for index, fingerprint in enumerate(prints):
            indices_by_print.setdefault(fingerprint, []).append(index)
        order = list(indices_by_print)  # submission-ordered, deduplicated
        representative = {
            fingerprint: jobs[indices[0]]
            for fingerprint, indices in indices_by_print.items()
        }

        try:
            entries = self.ledger.load()
            self._budget_tripped = False
            results: dict[str, EpisodeResult] = {}
            for fingerprint in order:
                entry = entries.get(fingerprint)
                if entry is not None and entry.kind == "done":
                    results[fingerprint] = decode_result(entry.payload)
            self._spent = self._initial_spent(entries, results)

            pending = [fp for fp in order if fp not in results]
            mine = [fp for fp in pending if self.owns(fp)]
            self._run_wave(mine, representative, executor, results)
            if self.shards > 1 and not self._budget_tripped:
                self._await_foreign(pending, representative, executor, results)
        finally:
            self.ledger.flush()
        if self._budget_tripped:
            report = self._budget_report(order, results)
            source = (
                "partitioned wave budget"
                if self.budget_scope == "wave"
                else "REPRO_BUDGET_TOKENS"
            )
            raise BudgetExceededError(
                f"token budget exhausted: {self._spent} tokens recorded in "
                f"{self.ledger.path} >= {source} budget of "
                f"{self.budget_tokens}; "
                "admission stopped, in-flight episodes persisted",
                report=report,
            )
        return [results[fingerprint] for fingerprint in prints]

    def _initial_spent(
        self,
        entries: dict[str, LedgerEntry],
        restored: dict[str, "EpisodeResult"],
    ) -> int:
        if self.budget_scope == "wave":
            return sum(
                result.prompt_tokens + result.output_tokens
                for result in restored.values()
            )
        return self._ledger_spent(entries)

    def _run_wave(
        self,
        fingerprints: list[str],
        representative: dict[str, "TrialJob"],
        executor: "TrialExecutor",
        results: dict[str, "EpisodeResult"],
    ) -> None:
        """Stream one wave of jobs, checkpointing each completion."""
        if not fingerprints or self._budget_tripped:
            return
        admitted: list[str] = []

        def admission():
            for fingerprint in fingerprints:
                if self.budget_tokens and self._spent >= self.budget_tokens:
                    self._budget_tripped = True
                    return
                self.ledger.append_lease(
                    fingerprint, self.shard_id, self.lease_seconds
                )
                admitted.append(fingerprint)
                yield representative[fingerprint]

        # With a budget the stream runs a bounded in-flight window so
        # admission decisions see near-current spend; without one the
        # whole wave submits eagerly for maximum pipelining.
        window = None
        if self.budget_tokens:
            window = max(2, 2 * executor.concurrency)
        for index, result in executor.run_stream(admission(), window=window):
            fingerprint = admitted[index]
            results[fingerprint] = result
            self.executed += 1
            self._spent += result.prompt_tokens + result.output_tokens
            self.ledger.append_done(
                fingerprint, representative[fingerprint], result, self.shard_id
            )
        # Make this wave's completions visible to sibling shards
        # promptly, not a flush window later.
        self.ledger.flush()

    def _await_foreign(
        self,
        pending: list[str],
        representative: dict[str, "TrialJob"],
        executor: "TrialExecutor",
        results: dict[str, "EpisodeResult"],
    ) -> None:
        """Adopt, steal, or wait for jobs owned by other shards."""
        while not self._budget_tripped:
            missing = [fp for fp in pending if fp not in results]
            if not missing:
                return
            entries = self.ledger.load()
            if self.budget_scope == "ledger":
                self._spent = self._ledger_spent(entries)
            progressed = False
            for fingerprint in missing:
                entry = entries.get(fingerprint)
                if entry is not None and entry.kind == "done":
                    results[fingerprint] = decode_result(entry.payload)
                    if self.budget_scope == "wave":
                        self._spent += entry.prompt_tokens + entry.output_tokens
                    progressed = True
            missing = [fp for fp in missing if fp not in results]
            if not missing:
                return
            now = time.monotonic()
            stealable = [
                fp for fp in missing if self._stealable(entries.get(fp), now)
            ]
            if stealable:
                self._run_wave(stealable, representative, executor, results)
                progressed = True
            if not progressed:
                time.sleep(self.poll_seconds)

    def _stealable(self, entry: LedgerEntry | None, now: float) -> bool:
        """A foreign job is stealable when unclaimed or its lease lapsed.

        ``now`` is a ``time.monotonic()`` reading: expiry compares
        monotonic deadlines (rebased at apply time), so a wall-clock
        step can neither steal a live lease nor immortalize a dead one.
        """
        if entry is None:
            return True
        if entry.kind == "done":
            return False
        return entry.shard == self.shard_id or entry.deadline <= now

    # ------------------------------------------------------------------ #
    # Budget accounting
    # ------------------------------------------------------------------ #

    @staticmethod
    def _ledger_spent(entries: dict[str, LedgerEntry]) -> int:
        """Tokens recorded by every done entry in the ledger (all shards)."""
        return sum(
            entry.prompt_tokens + entry.output_tokens
            for entry in entries.values()
            if entry.kind == "done"
        )

    def _budget_report(
        self, order: list[str], results: dict[str, "EpisodeResult"]
    ) -> str:
        from repro.llm.costs import cost_breakdown

        deployment_totals: dict[str, list[int]] = {}
        for fingerprint in order:
            result = results.get(fingerprint)
            if result is None:
                continue
            for model, (prompt, output) in result.deployment_tokens.items():
                bucket = deployment_totals.setdefault(model, [0, 0])
                bucket[0] += prompt
                bucket[1] += output
        tokens = {
            model: (prompt, output)
            for model, (prompt, output) in sorted(deployment_totals.items())
        }
        costs = cost_breakdown(tokens)
        lines = [
            "fleet budget report (partial ledger):",
            f"  ledger: {self.ledger.path}",
            f"  jobs completed: {len(results)}/{len(order)} requested in this call",
            f"  tokens recorded: {self._spent} "
            f"(budget {self.budget_tokens}, {self.budget_scope} scope)",
        ]
        for model, (prompt, output) in tokens.items():
            lines.append(
                f"  {model}: {prompt} prompt + {output} output tokens"
                f" ~= ${costs[model]:.4f}"
            )
        lines.append(
            "  resume with a raised budget against the same "
            "REPRO_LEDGER to continue where admission stopped"
        )
        return "\n".join(lines)


def fleet_from_env() -> FleetRunner | None:
    """The fleet runner the environment selects, or ``None`` when off.

    ``REPRO_LEDGER`` (a JSONL path) turns the layer on; ``REPRO_SHARDS``
    / ``REPRO_SHARD_ID`` select this process's partition;
    ``REPRO_BUDGET_TOKENS`` caps ledger-wide token spend (0 = no cap,
    and an active :func:`budget_scope` overrides it with a per-wave
    share); ``REPRO_LEASE_SECONDS`` / ``REPRO_FLEET_POLL`` tune work
    stealing; ``REPRO_FLUSH_SECONDS`` / ``REPRO_COMPACT_RECORDS`` tune
    ledger I/O batching and compaction.  Read at every call so tests and
    long-lived processes can retarget ledgers without rebuilding
    settings objects.
    """
    path = raw_knob("REPRO_LEDGER")
    if not path:
        return None
    shards = int_knob("REPRO_SHARDS", 1)
    shard_id = int_knob("REPRO_SHARD_ID", 0, minimum=0)
    if shard_id >= shards:
        raise ValueError(
            f"REPRO_SHARD_ID must be < REPRO_SHARDS ({shards}), got {shard_id}"
        )
    ledger = JobLedger(
        Path(path),
        flush_seconds=float_knob("REPRO_FLUSH_SECONDS", DEFAULT_FLUSH_SECONDS),
        compact_records=int_knob(
            "REPRO_COMPACT_RECORDS", DEFAULT_COMPACT_RECORDS, minimum=0
        ),
    )
    scoped = _scoped_budget()
    if scoped is not None:
        budget_tokens, scope = scoped, "wave"
    else:
        budget_tokens = int_knob("REPRO_BUDGET_TOKENS", 0, minimum=0)
        scope = "ledger"
    return FleetRunner(
        ledger,
        shards=shards,
        shard_id=shard_id,
        budget_tokens=budget_tokens,
        lease_seconds=float_knob("REPRO_LEASE_SECONDS", DEFAULT_LEASE_SECONDS),
        poll_seconds=float_knob("REPRO_FLEET_POLL", DEFAULT_POLL_SECONDS),
        budget_scope=scope,
    )


# ---------------------------------------------------------------------- #
# Ops surface: ``python -m repro.core.fleet status <ledger>``
# ---------------------------------------------------------------------- #

#: ``fleet status`` exit codes — stable contract for CI/cron wrappers
#: that poll a ledger without parsing the report text.
STATUS_COMPLETE = 0  # every leased job has a done record (and >= 1 done)
STATUS_IN_PROGRESS = 1  # work pending: live/dead leases without done, or empty
STATUS_OVER_BUDGET = 2  # recorded spend reached REPRO_BUDGET_TOKENS


def ledger_status(path: Path | str) -> tuple[str, int]:
    """Render a progress/cost report for a ledger; return (text, exit code).

    The report covers completion counts, per-shard throughput (from the
    wall-clock ``ts`` each done record carries), live and dead leases,
    token spend vs ``REPRO_BUDGET_TOKENS``, and the per-deployment
    dollar estimate (:mod:`repro.llm.costs`) computed from the JSON
    envelopes alone — no pickled payload is ever decoded, so status on
    a 100k-record ledger stays cheap.
    """
    from repro.llm.costs import cost_breakdown

    ledger = JobLedger(path)
    budget = int_knob("REPRO_BUDGET_TOKENS", 0, minimum=0)
    entries = ledger.load()
    done = [e for e in entries.values() if e.kind == "done"]
    leases = [e for e in entries.values() if e.kind == "lease"]
    now = time.monotonic()
    live = [e for e in leases if e.deadline > now]
    dead = [e for e in leases if e.deadline <= now]
    spent = sum(e.prompt_tokens + e.output_tokens for e in done)

    lines = [f"fleet ledger: {ledger.path}"]
    if not entries:
        lines.append("  empty (no records)")
        return "\n".join(lines), STATUS_IN_PROGRESS

    snap = ledger.snap_path
    size = ledger.path.stat().st_size if ledger.path.exists() else 0
    lines.append(
        f"  records: {len(done)} done, {len(live)} leased (live), "
        f"{len(dead)} dead leases"
    )
    lines.append(
        f"  storage: {size} B live journal + "
        f"{snap.stat().st_size if snap.exists() else 0} B snapshot "
        f"(generation {ledger.generation})"
    )

    by_shard: dict[int, list[LedgerEntry]] = {}
    for entry in done:
        by_shard.setdefault(entry.shard, []).append(entry)
    for shard in sorted(by_shard):
        stamps = [e.ts for e in by_shard[shard] if e.ts > 0]
        span = max(stamps) - min(stamps) if len(stamps) >= 2 else 0.0
        rate = f"{len(stamps) / span:6.2f} done/s" if span > 0 else "   n/a      "
        lines.append(
            f"  shard {shard}: {len(by_shard[shard]):4d} done  {rate}"
            f"  ({len([e for e in live if e.shard == shard])} live leases)"
        )
    for entry in sorted(dead, key=lambda e: e.fingerprint)[:5]:
        age = now - entry.deadline
        lines.append(
            f"  dead lease: {entry.fingerprint[:12]}… shard {entry.shard} "
            f"expired {age:.0f}s ago (stealable)"
        )

    deployment_tokens = {}
    for entry in done:
        for model, (prompt, output) in sorted(entry.models.items()):
            bucket = deployment_tokens.setdefault(model, [0, 0])
            bucket[0] += prompt
            bucket[1] += output
    if deployment_tokens:
        costs = cost_breakdown(
            {m: (p, o) for m, (p, o) in sorted(deployment_tokens.items())}
        )
        parts = ", ".join(f"{m} ${c:.4f}" for m, c in costs.items())
        lines.append(f"  cost: ${sum(costs.values()):.4f}  ({parts})")
    budget_text = f"{budget}" if budget else "unlimited"
    lines.append(f"  tokens: {spent} spent / REPRO_BUDGET_TOKENS {budget_text}")

    if budget and spent >= budget:
        lines.append("  status: OVER BUDGET (exit 2)")
        return "\n".join(lines), STATUS_OVER_BUDGET
    if not done or live or dead:
        lines.append("  status: in progress (exit 1)")
        return "\n".join(lines), STATUS_IN_PROGRESS
    lines.append("  status: complete (exit 0)")
    return "\n".join(lines), STATUS_COMPLETE


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: ``python -m repro.core.fleet status <ledger>``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.fleet",
        description="Operate on a fleet job ledger.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    status = commands.add_parser(
        "status",
        help="progress/cost report; exits 0 complete, 1 in progress, "
        "2 over REPRO_BUDGET_TOKENS",
    )
    status.add_argument("ledger", help="path of the JSONL job ledger")
    args = parser.parse_args(argv)
    report, code = ledger_status(Path(args.ledger))
    print(report)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised by fleet_drill
    raise SystemExit(main())
