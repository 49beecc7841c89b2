"""Self-test of the benchmark's probes and driver.

Run from the root of a checkout::

    python3 -m pytest e2ebench/test_probes.py -q

Each workload runs one reduced traced pass and one untraced pass (one
trial per cell) through ``episode_pass.py``, exactly as the benchmark
runs them.  The tests check the predictions recorded in
``probes.PROBES`` against the traced pass, that tracing does not change
the digest, and that ``BENCHMARK.json`` lists what ``run.py`` prints.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _pass(workload: str, trace: bool, tmp_path: Path) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "episode_pass.py"),
        "--workload", workload, "--seed", str(workloads.DEFAULT_SEED),
        "--launched", repr(time.monotonic()), "--trials", "1",
        "--out", str(tmp_path),
    ]
    if trace:
        command.append("--trace")
    done = subprocess.run(
        command, capture_output=True, text=True, cwd=ROOT, env=run._clean_env(), timeout=300
    )
    record = json.loads(done.stdout.strip().splitlines()[-1])
    assert "error" not in record, record["error"]
    return record


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def passes(request, tmp_path_factory) -> tuple[str, dict, dict]:
    tmp_path = tmp_path_factory.mktemp(request.param)
    traced = _pass(request.param, True, tmp_path)
    untraced = _pass(request.param, False, tmp_path)
    return request.param, traced, untraced


def test_probes_fire_where_predicted(passes) -> None:
    workload, traced, _ = passes
    calls = traced["trace"]["calls"]
    silent = [p.name for p in probes.PROBES if workload in p.fires_on and not calls.get(p.name)]
    noisy = [p.name for p in probes.PROBES if workload in p.zero_on and calls.get(p.name)]
    assert not silent, f"{workload}: predicted to fire but recorded 0 calls: {silent}"
    assert not noisy, f"{workload}: predicted 0 calls but fired: {noisy}"


def test_names_imported_by_value_are_patched_where_looked_up(passes) -> None:
    # Callers look ``astar`` up in repro.envs.grid and ``aggregate`` in
    # repro.experiments.common; wrapping the defining modules would count 0.
    _, traced, _ = passes
    calls = traced["trace"]["calls"]
    assert calls.get("astar", 0) > 0
    assert calls.get("aggregate", 0) > 0


def test_tracing_keeps_the_digest(passes) -> None:
    _, traced, untraced = passes
    assert traced["digest"] == untraced["digest"]
    assert traced["resume_matches"] and untraced["resume_matches"]
    assert traced["resume_dispatched"] == untraced["resume_dispatched"] == 0


def test_benchmark_json_matches_the_driver() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )
