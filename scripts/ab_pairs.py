"""Parent-versus-change A/B runs of the end-to-end benchmark.

Usage (from the root of a checkout)::

    python3 scripts/ab_pairs.py --base HEAD --workload solo-modular \\
        --pairs 10 --seed 2025 --seconds 25 --claim wall_s

``--base`` names the parent revision; the change is this checkout's
working tree.  The committed files of ``--base`` are exported into a
temporary directory, removed on exit (a SIGTERM included), so the
parent runs exactly what ``git archive`` holds.  Each pair runs
``e2ebench/run.py`` once per side, and the side that runs first
alternates from pair to pair, so a slow spell of the host does not
always land on one side.  Every run's last-line JSON is kept
(``--out`` writes them all to a file).

For every metric the report prints, per side, the median, the quartiles,
the pairs the change won and each run's value.  Verdicts:

- the ``--claim`` metric is a gain only when the change wins at least
  9 in 10 pairs and the gap between the medians exceeds the parent's
  interquartile range;
- every end-to-end metric of ``BENCHMARK.json`` is ``ok`` when the
  change's median is no worse than the parent's by more than the
  metric's bound, ``unresolved`` when either side's interquartile range
  exceeds that bound (unless every change run beats every parent run),
  and ``worse`` otherwise.

A run that reports ``correct: false`` or ``failed > 0`` fails the
comparison.  Exits 0 only when no run failed, every end-to-end verdict
is ``ok`` and the claim, if any, holds.  The script reads
``BENCHMARK.json`` and writes nothing under ``e2ebench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Share of pairs the change must win for a claimed gain.
CLAIM_WIN_SHARE = 0.9


@dataclass(frozen=True)
class Summary:
    """Median and quartiles of one side's runs of one metric."""

    median: float
    q1: float
    q3: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def summarize(values: list[float]) -> Summary:
    if len(values) < 2:
        return Summary(values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return Summary(median, q1, q3)


def beats(change: float, base: float, better: str) -> bool:
    return change < base if better == "lower" else change > base


def wins(base: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change's run beats the parent's."""
    return sum(beats(c, b, better) for b, c in zip(base, change))


def claim_verdict(base: list[float], change: list[float], better: str) -> tuple[bool, str]:
    """Whether the change shows a gain on a claimed metric."""
    won = wins(base, change, better)
    needed = math.ceil(CLAIM_WIN_SHARE * len(base))
    parent, ours = summarize(base), summarize(change)
    gap = parent.median - ours.median if better == "lower" else ours.median - parent.median
    gain = won >= needed and gap > parent.iqr
    text = (
        f"{'gain' if gain else 'no gain'}: won {won}/{len(base)} (need {needed}), "
        f"median gap {gap:+.6g} vs parent IQR {parent.iqr:.6g}"
    )
    return gain, text


def bound_verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """``ok``, ``unresolved`` or ``worse`` against a relative bound."""
    if all(beats(c, b, better) for c in change for b in base):
        return "ok"
    parent, ours = summarize(base), summarize(change)
    if any(side.median and side.iqr / abs(side.median) > bound for side in (parent, ours)):
        return "unresolved"
    worsening = ours.median - parent.median if better == "lower" else parent.median - ours.median
    return "ok" if worsening <= bound * abs(parent.median) else "worse"


@dataclass
class Report:
    """Verdicts of one comparison."""

    problems: list[str]
    verdicts: dict[str, str]
    claim: tuple[bool, str] | None

    @property
    def passed(self) -> bool:
        claimed = self.claim is None or self.claim[0]
        return not self.problems and claimed and all(v == "ok" for v in self.verdicts.values())


def metric_values(records: list[dict], name: str) -> list[float]:
    return [record["metrics"][name]["value"] for record in records]


def judge(
    base: list[dict],
    change: list[dict],
    end_to_end: list[dict],
    claim: str | None = None,
    claim_better: str = "lower",
) -> Report:
    """Verdicts over paired last-line records of ``e2ebench/run.py``.

    ``base[i]`` and ``change[i]`` form pair ``i``; ``end_to_end`` is the
    ``end_to_end`` list of ``BENCHMARK.json``.  Bound verdicts cover the
    end-to-end metrics the records carry.
    """
    problems = [
        f"{side} run {index}: correct={record.get('correct')} failed={record.get('failed')}"
        for side, records in (("parent", base), ("change", change))
        for index, record in enumerate(records)
        if record.get("correct") is not True or record.get("failed", 1) > 0
    ]
    if len(base) != len(change) or not base:
        problems.append(f"unpaired runs: {len(base)} parent, {len(change)} change")
    present = base[0]["metrics"] if base else {}
    if claim is not None and claim not in present:
        problems.append(f"claimed metric {claim!r} is not in the records")
    if problems:
        return Report(problems, {}, None if claim is None else (False, "no verdict"))
    verdicts = {
        spec["name"]: bound_verdict(
            metric_values(base, spec["name"]),
            metric_values(change, spec["name"]),
            spec["better"],
            spec["bound"],
        )
        for spec in end_to_end
        if spec["name"] in present
    }
    claimed = None
    if claim is not None:
        better = next((s["better"] for s in end_to_end if s["name"] == claim), claim_better)
        claimed = claim_verdict(metric_values(base, claim), metric_values(change, claim), better)
    return Report(problems, verdicts, claimed)


def export(rev: str, into: Path) -> None:
    """Write the committed files of ``rev`` into ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    )
    with tempfile.TemporaryFile() as buffer:
        buffer.write(archive.stdout)
        buffer.seek(0)
        with tarfile.open(fileobj=buffer) as tar:
            tar.extractall(into, filter="data")


def run_once(root: Path, args: argparse.Namespace) -> dict:
    command = [
        sys.executable, "e2ebench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "failed": 1, "error": done.stderr.strip()[-400:]}


def print_table(base: list[dict], change: list[dict], names: list[str], better: dict) -> None:
    print(f"{'metric':<28}{'side':<8}{'median':>12}{'q1':>12}{'q3':>12}{'wins':>7}  runs")
    for name in names:
        parent = metric_values(base, name)
        for side, values in (("parent", parent), ("change", metric_values(change, name))):
            stats = summarize(values)
            won = ""
            if side == "change":
                won = f"{wins(parent, values, better.get(name, 'lower'))}/{len(values)}"
            runs = " ".join(f"{value:.4g}" for value in values)
            label = name if side == "parent" else ""
            print(
                f"{label:<28}{side:<8}{stats.median:>12.6g}{stats.q1:>12.6g}"
                f"{stats.q3:>12.6g}{won:>7}  {runs}"
            )


def _exit_on_sigterm(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent revision (git rev)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--claim", help="metric the change claims to improve")
    parser.add_argument("--out", type=Path, help="write every run's record here (JSON)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = spec["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end + spec.get("per_layer", [])}
    # A SIGTERM (a stopped comparison, a CI or session timeout) unwinds
    # like an exception: the finally block removes the export, and
    # subprocess.run kills the benchmark run it was waiting for.
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    base_root = Path(tempfile.mkdtemp(prefix="ab-parent-"))
    base: list[dict] = []
    change: list[dict] = []
    try:
        export(args.base, base_root)
        for pair in range(args.pairs):
            order = [("parent", base_root, base), ("change", ROOT, change)]
            if pair % 2:
                order.reverse()
            for side, root, records in order:
                record = run_once(root, args)
                records.append(record)
                wall = record.get("metrics", {}).get("wall_s", {}).get("value")
                print(f"pair {pair} {side}: correct={record.get('correct')} wall_s={wall}",
                      file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(base_root, ignore_errors=True)
        signal.signal(signal.SIGTERM, previous)

    report = judge(base, change, end_to_end, args.claim, better.get(args.claim, "lower"))
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"settings": vars(args) | {"out": str(args.out)}, "parent": base, "change": change},
            indent=1, sort_keys=True, default=str,
        ))
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"base={args.base} pairs={args.pairs}")
    for problem in report.problems:
        print(f"FAILED {problem}")
    if not report.problems:
        print_table(base, change, list(base[0]["metrics"]), better)
        for name, verdict in report.verdicts.items():
            print(f"  {name}: {verdict}")
        if report.claim is not None:
            print(f"  claim {args.claim}: {report.claim[1]}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
