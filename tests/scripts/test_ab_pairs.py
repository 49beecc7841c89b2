"""Verdicts of the parent-versus-change harness on synthetic runs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "scripts" / "ab_pairs.py")
ab_pairs = sys.modules["ab_pairs"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def record(correct=True, failed=0, **values):
    """A last-line record of ``e2ebench/run.py`` holding ``values``."""
    defaults = {
        "wall_s": 5.0,
        "sim_steps_per_s": 1000.0,
        "setup_s": 0.4,
        "peak_rss_mb": 64.0,
        "resume_s": 0.3,
    }
    metrics = {name: {"value": value, "unit": ""} for name, value in (defaults | values).items()}
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}


def runs(metric, values):
    return [record(**{metric: value}) for value in values]


PARENT_WALL = [5.40, 5.52, 5.32, 5.60, 5.47, 5.35, 5.58, 5.44, 5.50, 5.46]


class TestClaim:
    def test_gain_when_nine_of_ten_win_and_gap_exceeds_iqr(self):
        change = [4.5, 4.6, 4.4, 4.5, 4.55, 4.48, 4.52, 4.47, 5.6, 4.5]  # one loss
        report = ab_pairs.judge(
            runs("wall_s", PARENT_WALL), runs("wall_s", change), END_TO_END, claim="wall_s"
        )
        assert report.claim[0], report.claim[1]
        assert report.passed

    def test_eight_wins_are_not_a_gain(self):
        change = [4.5] * 8 + [5.7, 5.7]
        report = ab_pairs.judge(
            runs("wall_s", PARENT_WALL), runs("wall_s", change), END_TO_END, claim="wall_s"
        )
        assert not report.claim[0]
        assert not report.passed

    def test_gap_inside_parent_iqr_is_not_a_gain(self):
        change = [value - 0.05 for value in PARENT_WALL]  # wins every pair, tiny gap
        report = ab_pairs.judge(
            runs("wall_s", PARENT_WALL), runs("wall_s", change), END_TO_END, claim="wall_s"
        )
        assert ab_pairs.wins(PARENT_WALL, change, "lower") == 10
        assert not report.claim[0]

    def test_higher_is_better_metrics_win_upwards(self):
        parent = [1000.0 + i for i in range(10)]
        change = [1300.0 + i for i in range(10)]
        report = ab_pairs.judge(
            runs("sim_steps_per_s", parent),
            runs("sim_steps_per_s", change),
            END_TO_END,
            claim="sim_steps_per_s",
        )
        assert report.claim[0]

    def test_missing_claim_metric_fails(self):
        report = ab_pairs.judge(runs("wall_s", [5.0]), runs("wall_s", [4.0]), END_TO_END, "nope")
        assert report.problems and not report.passed


class TestBounds:
    def test_within_bound_is_ok(self):
        report = ab_pairs.judge(
            runs("setup_s", [0.40, 0.41, 0.39, 0.40, 0.40]),
            runs("setup_s", [0.41, 0.42, 0.40, 0.41, 0.42]),
            END_TO_END,
        )
        assert report.verdicts["setup_s"] == "ok"
        assert set(report.verdicts) == {spec["name"] for spec in END_TO_END}
        assert report.passed

    def test_beyond_bound_is_worse(self):
        report = ab_pairs.judge(
            runs("peak_rss_mb", [64.0, 64.1, 63.9, 64.0, 64.0]),
            runs("peak_rss_mb", [75.0, 75.2, 74.9, 75.1, 75.0]),  # +17% > 10%
            END_TO_END,
        )
        assert report.verdicts["peak_rss_mb"] == "worse"
        assert not report.passed

    def test_wide_spread_is_unresolved(self):
        report = ab_pairs.judge(
            runs("resume_s", [0.2, 0.5, 0.25, 0.45, 0.3]),  # IQR 0.2 on a 0.3 median
            runs("resume_s", [0.25, 0.55, 0.3, 0.5, 0.2]),
            END_TO_END,
        )
        assert report.verdicts["resume_s"] == "unresolved"
        assert not report.passed

    def test_wide_spread_resolved_when_every_change_run_wins(self):
        report = ab_pairs.judge(
            runs("resume_s", [0.6, 0.9, 0.7, 1.2, 0.8]),
            runs("resume_s", [0.3, 0.5, 0.2, 0.35, 0.4]),
            END_TO_END,
        )
        assert report.verdicts["resume_s"] == "ok"


class TestFailedRuns:
    @pytest.mark.parametrize("bad", [record(correct=False), record(failed=2)])
    def test_any_failed_run_fails_the_comparison(self, bad):
        parent = runs("wall_s", [5.0, 5.1, 5.2])
        change = runs("wall_s", [4.0, 4.1]) + [bad]
        report = ab_pairs.judge(parent, change, END_TO_END, claim="wall_s")
        assert report.problems
        assert not report.passed
        assert not report.claim[0]

    def test_unpaired_runs_fail(self):
        report = ab_pairs.judge(runs("wall_s", [5.0, 5.1]), runs("wall_s", [4.0]), END_TO_END)
        assert report.problems


def test_summary_quartiles():
    stats = ab_pairs.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (stats.q1, stats.median, stats.q3) == (2.0, 3.0, 4.0)
    assert stats.iqr == 2.0
    assert ab_pairs.summarize([7.0]) == ab_pairs.Summary(7.0, 7.0, 7.0)


#: A comparison whose first benchmark run is stopped by SIGTERM: the
#: export writes one file and logs where, the run signals its own process.
SIGTERM_DRIVER = """
import importlib.util, os, signal, sys
from pathlib import Path

spec = importlib.util.spec_from_file_location("ab_pairs", sys.argv[1])
ab_pairs = sys.modules["ab_pairs"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)
log = Path(sys.argv[2])

def export(rev, into):
    (into / "exported.txt").write_text(rev)
    log.write_text(str(into))

def run_once(root, args):
    os.kill(os.getpid(), signal.SIGTERM)
    return {"correct": True, "failed": 0, "metrics": {}}

ab_pairs.export = export
ab_pairs.run_once = run_once
sys.exit(ab_pairs.main(["--base", "HEAD", "--workload", "solo-modular", "--pairs", "2"]))
"""


def test_sigterm_removes_the_exported_parent(tmp_path):
    temp = tmp_path / "tmp"
    temp.mkdir()
    log = tmp_path / "export.log"
    done = subprocess.run(
        [sys.executable, "-c", SIGTERM_DRIVER, str(ROOT / "scripts" / "ab_pairs.py"), str(log)],
        env=os.environ | {"TMPDIR": str(temp)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    exported = Path(log.read_text())
    assert exported.parent == temp and exported.name.startswith("ab-parent-")
    assert done.returncode == 128 + 15, done.stderr
    assert not exported.exists()
    assert list(temp.glob("ab-parent-*")) == []
