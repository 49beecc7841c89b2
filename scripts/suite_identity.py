"""Check that the suite report does not depend on how it was run.

Runs ``python -m repro.experiments.suite`` three times at one trial per
cell:

1. serially, checkpointing into a fresh ``REPRO_LEDGER``;
2. at ``REPRO_WORKERS=2`` with no ledger;
3. serially again, resumed against the now-complete ledger.

The three reports must be byte-identical once their closing ``Report
generated in`` line is dropped, and the resumed run must leave the
ledger's byte size unchanged (it restored every episode and ran none).

Usage::

    python scripts/suite_identity.py        # or: make suite-identity

Exits non-zero, with a diff of the first mismatch, on any violation.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMING_PREFIX = "Report generated in "


def report(**knobs: str) -> str:
    """The suite report under ``knobs``, without its closing timing line.

    Other ``REPRO_*`` settings pass through from the environment; the
    trial count, worker count and ledger are this script's.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_WORKERS", "REPRO_LEDGER")
    }
    env.update(knobs, REPRO_TRIALS="1", PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "repro.experiments.suite"],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    lines = done.stdout.splitlines(keepends=True)
    if not lines or not lines[-1].startswith(TIMING_PREFIX):
        fail(f"the report under {knobs} does not end with a timing line")
    return "".join(lines[:-1])


def fail(message: str) -> None:
    print(f"suite-identity: FAIL — {message}")
    raise SystemExit(1)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        ledger = Path(tmp) / "suite.jsonl"
        reports = {"serial, fresh ledger": report(REPRO_LEDGER=str(ledger))}
        written = ledger.stat().st_size
        reports["2 workers, no ledger"] = report(REPRO_WORKERS="2")
        reports["serial, resumed ledger"] = report(REPRO_LEDGER=str(ledger))
        if ledger.stat().st_size != written:
            fail(f"the resumed run appended {ledger.stat().st_size - written} bytes")
    (first_name, first), *others = reports.items()
    for name, text in others:
        if text != first:
            diff = difflib.unified_diff(
                first.splitlines(), text.splitlines(), first_name, name, lineterm=""
            )
            print("\n".join(list(diff)[:40]))
            fail(f"the report differs between '{first_name}' and '{name}'")
    print(
        f"suite-identity: OK — {len(reports)} identical reports; "
        f"the resumed run appended 0 of {written} ledger bytes"
    )


if __name__ == "__main__":
    main()
