"""Job dispatch and the checkpoint journal: each distinct job runs once.

:func:`dispatch` is the one path from a job list to submission-ordered
results.  It fingerprints every job, restores what the ledger already
holds, streams each remaining distinct job once through
:meth:`~repro.core.executor.TrialExecutor.run_stream`, and fans the
results back out, so jobs that a wave repeats share one result.  With a
ledger (``REPRO_LEDGER``, :func:`ledger_from_env`) each completion is
appended as it lands: a killed sweep, restarted against the same
ledger, re-runs only what the ledger lacks, and its aggregates are
byte-identical to an uninterrupted run.

The ledger (:class:`JobLedger`) is a JSONL journal, one line per
completed episode, written by one process per sweep and read whole at
the start of each dispatch.  A line's payload is the episode's whole
result, so a resume decodes only what results hold: Fig. 6's per-step
prompt series only for the jobs flagged ``prompt_series``.  A killed
writer loses at most one flush window of episodes, and its torn last
line is never parsed.

Jobs are keyed by a **content fingerprint** (:func:`job_fingerprint`):
a SHA-256 over the canonical JSON of ``(config, task, seed,
prompt_series)`` and :data:`SEMANTICS_VERSION`.  Every value that can
change a result is in the job itself (the serving mode and overlap are
fields of the config's ``optimizations``; ``prompt_series`` decides
whether the result carries Fig. 6's series), so two jobs share a result
only when they would return equal results, and a stale ledger can never
leak results produced under different semantics into a resumed run.
Execution-shape knobs (worker counts, the ledger path) change how jobs
run, never what an episode computes, so they are not part of a job.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import time
import zlib
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.envknobs import raw_knob

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.core.executor import TrialExecutor, TrialJob
    from repro.core.metrics import EpisodeResult

try:  # pragma: no cover - fcntl is present on every supported platform
    import fcntl
except ImportError:  # pragma: no cover - windows fallback: no inter-process lock
    fcntl = None  # type: ignore[assignment]

#: Part of every job fingerprint.  Bump it with any change that alters
#: what an episode computes or what its ledger payload holds for an
#: unchanged job, so a ledger written by older code can never resume
#: silently: its lines no longer match, and their jobs run again.
#: Version 3: only a job flagged ``prompt_series`` carries Fig. 6's
#: series, and the flag is part of the payload.
SEMANTICS_VERSION = 3

#: Staged records are flushed at most this many seconds apart...
DEFAULT_FLUSH_SECONDS = 0.5
#: ...or as soon as this many are staged.
FLUSH_RECORDS = 64


def knob_fingerprint() -> dict[str, str]:
    """The result-affecting ``REPRO_*`` variables: none exist, so ``{}``.

    Kept for run records that store it; every value that changes a
    result is a field of the job's config.
    """
    return {}


def job_fingerprint(job: "TrialJob") -> str:
    """Content fingerprint of one trial job.

    A SHA-256 over the job's fields as canonical JSON: the config's and
    the task's fields (the config's nested ``MemoryConfig`` and
    ``OptimizationConfig`` one level down), the seed, the
    ``prompt_series`` flag and :data:`SEMANTICS_VERSION`.  That is the
    JSON ``dataclasses.asdict`` gives, without its deep copies.

    A restarted process must agree with the one it replaces on which
    jobs are "the same", so every field must render to a stable JSON
    value: primitives, and lists and dicts of them (``env_params`` and
    ``task.params`` included), or fingerprints stop matching their own
    re-runs.  JSON renders anything else with ``str``.
    """
    config = dict(vars(job.config))
    config["optimizations"] = vars(job.config.optimizations)
    if job.config.memory is not None:
        config["memory"] = vars(job.config.memory)
    payload = {
        "config": config,
        "task": vars(job.task),
        "seed": job.seed,
        "prompt_series": job.prompt_series,
        "semantics": SEMANTICS_VERSION,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def encode_result(result: "EpisodeResult") -> str:
    """Exact round-trip encoding of an episode result for the ledger.

    Pickle inside zlib inside base64: the JSON line stays readable
    (fingerprint, job description), while the payload preserves every
    float bit and nested dataclass — the property that makes resumed
    aggregates byte-identical to uninterrupted ones.
    """
    return base64.b64encode(zlib.compress(pickle.dumps(result), 6)).decode("ascii")


def decode_result(payload: str) -> "EpisodeResult":
    return pickle.loads(zlib.decompress(base64.b64decode(payload.encode("ascii"))))


class JobLedger:
    """Append-only JSONL journal of completed episodes.

    One line per episode: ``{"fingerprint", "job", "payload"}``.
    :meth:`append_done` stages a line; :meth:`flush` appends every staged
    line as one exclusive-``flock`` ``write`` + ``fsync``, and runs on
    the append that finds :data:`FLUSH_RECORDS` lines staged or
    ``flush_seconds`` elapsed (``0``: every append is durable at once).
    ``bytes_read`` / ``bytes_appended`` count the file I/O.
    """

    def __init__(self, path: Path | str, flush_seconds: float = DEFAULT_FLUSH_SECONDS):
        if flush_seconds < 0:
            raise ValueError(f"flush_seconds must be >= 0: {flush_seconds}")
        self.path = Path(path)
        self.flush_seconds = flush_seconds
        self.bytes_read = 0
        self.bytes_appended = 0
        self._buffer: list[bytes] = []
        self._last_flush = time.monotonic()

    def load(self) -> dict[str, str]:
        """Fingerprint -> encoded payload of every whole line on disk.

        Reads through the last newline only, so a killed writer's torn
        line stays unread until the next flush terminates it; from then
        on it is skipped like any corrupt line.  Lines lacking a
        fingerprint or a payload are skipped; on a duplicate fingerprint
        the first line wins.  Staged, unflushed lines are not visible.
        """
        try:
            blob = self.path.read_bytes()
        except FileNotFoundError:
            return {}
        self.bytes_read += len(blob)
        done: dict[str, str] = {}
        for line in blob[: blob.rfind(b"\n") + 1].splitlines():
            try:
                record = json.loads(line)
            except ValueError:  # corrupt line (UnicodeDecodeError included)
                continue
            if not isinstance(record, dict):
                continue
            fingerprint, payload = record.get("fingerprint"), record.get("payload")
            valid = isinstance(fingerprint, str) and isinstance(payload, str)
            if valid and fingerprint and payload:
                done.setdefault(fingerprint, payload)
        return done

    def append_done(
        self, fingerprint: str, job: "TrialJob", result: "EpisodeResult", shard: int = 0
    ) -> None:
        """Stage one completed episode (flushing if the window is due).

        ``shard`` is accepted and ignored: the ledger has one writer per
        sweep, and the keyword stays only for callers that still pass it.
        """
        record = {
            "fingerprint": fingerprint,
            "job": job.describe(),
            "payload": encode_result(result),
        }
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        self._buffer.append(line.encode("utf-8"))
        if (
            self.flush_seconds <= 0
            or len(self._buffer) >= FLUSH_RECORDS
            or time.monotonic() - self._last_flush >= self.flush_seconds
        ):
            self.flush()

    def flush(self) -> None:
        """Append every staged record as one locked, fsynced write."""
        self._last_flush = time.monotonic()
        if not self._buffer:
            return
        payload = b"".join(self._buffer)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)  # released when fd closes
            size = os.fstat(fd).st_size
            if size > 0 and os.pread(fd, 1, size - 1) != b"\n":
                # Terminate a killed writer's torn line so it parses as
                # one corrupt line instead of fusing with our first record.
                payload = b"\n" + payload
            os.write(fd, payload)
            os.fsync(fd)
        finally:
            os.close(fd)
        self.bytes_appended += len(payload)
        self._buffer.clear()


def dispatch(
    jobs: list["TrialJob"],
    executor: "TrialExecutor",
    ledger: JobLedger | None = None,
) -> list["EpisodeResult"]:
    """Run (or restore) every job; results in submission order.

    Each distinct fingerprint runs at most once: the jobs the ledger
    lacks stream through ``executor.run_stream`` as one list, in
    first-occurrence order, and jobs with equal fingerprints share one
    result object.  With a ledger, every completion is appended as it
    lands and every exit path flushes, so an episode that finished
    before a crash is never lost to the exception.  A full resume
    starts no stream.
    """
    prints = [job_fingerprint(job) for job in jobs]
    unique: dict[str, "TrialJob"] = {}
    for fingerprint, job in zip(prints, jobs):
        unique.setdefault(fingerprint, job)
    try:
        done = ledger.load() if ledger is not None else {}
        results = {fp: decode_result(done[fp]) for fp in unique if fp in done}
        pending = [fp for fp in unique if fp not in results]
        if pending:
            wave = [unique[fp] for fp in pending]
            for index, result in executor.run_stream(wave):
                results[pending[index]] = result
                if ledger is not None:
                    ledger.append_done(pending[index], wave[index], result)
    finally:
        if ledger is not None:
            ledger.flush()
    return [results[fp] for fp in prints]


def ledger_from_env() -> JobLedger | None:
    """The ``REPRO_LEDGER`` journal, or ``None`` when the knob is unset.

    Read at every call, so tests and long-lived processes can retarget
    ledgers without rebuilding settings objects.
    """
    path = raw_knob("REPRO_LEDGER")
    return JobLedger(path) if path else None
