"""Episode settings: the system config decides, the shell never does.

The regression tests come first: a ledger never resumes results computed
under another serving mode, a pool warmed under one mode runs each later
job under that job's own config, and a shell that still exports the
retired serving knobs cannot flatten Rec. 1's comparisons.  Then the
ledger fingerprint, the library's plain defaults, and the one entry
point that reads the environment.
"""

from __future__ import annotations

import ast
import os
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import with_serve_mode

from repro.core.config import MemoryConfig
from repro.core.fleet import job_fingerprint, knob_fingerprint
from repro.core.runner import build_loop, build_task, trial_jobs
from repro.core.synthetic import synthetic_job
from repro.experiments import ablations, fig8_serving, suite
from repro.experiments.common import ExperimentSettings, GridCell, measure_grid
from repro.workloads.registry import get_workload

#: A stale shell: both knobs ``ExperimentSettings.from_env`` reads, at
#: non-default values, and the two retired serving knobs.
ENTRY_POINT_ENV = {
    "REPRO_SERVE": "batched",
    "REPRO_OVERLAP": "1",
    "REPRO_TRIALS": "3",
    "REPRO_WORKERS": "2",
}

SERIAL = ExperimentSettings(n_trials=2, executor="serial", max_workers=1)


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    for name in ENTRY_POINT_ENV:
        monkeypatch.delenv(name, raising=False)


def _grid(serve_mode: str = "percall") -> list[GridCell]:
    """A hard single-agent cell and a four-agent team."""
    jarvis = replace(get_workload("jarvis-1").config, memory=MemoryConfig(capacity_steps=30))
    return [
        GridCell(config=with_serve_mode(jarvis, serve_mode), difficulty="hard"),
        GridCell(config=with_serve_mode(get_workload("coela").config, serve_mode), n_agents=4),
    ]


class TestRegressions:
    def test_ledger_resume_honours_settings(self, tmp_path, monkeypatch):
        percall = measure_grid(_grid(), SERIAL)
        fresh = measure_grid(_grid("continuous"), SERIAL)
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger.jsonl"))
        measure_grid(_grid(), SERIAL)  # the ledger now holds per-call results
        resumed = measure_grid(_grid("continuous"), SERIAL)
        assert resumed == fresh
        assert resumed != percall

    def test_warm_pool_honours_settings(self):
        parallel = replace(SERIAL, executor="parallel", max_workers=2)
        warm = measure_grid(_grid(), parallel)  # forks and warms the shared pool
        serial = measure_grid(_grid("continuous"), SERIAL)
        pooled = measure_grid(_grid("continuous"), parallel)
        assert pooled == serial
        assert pooled != warm

    def test_stale_shell_cannot_flatten_rec1(self, monkeypatch):
        """``REPRO_SERVE=batched REPRO_OVERLAP=1`` once batched every
        per-call arm too, so Fig. 8 and the Rec. 1 ablation read 1.00x;
        the per-call arms serve per call whatever the shell exports."""
        monkeypatch.setenv("REPRO_SERVE", "batched")
        monkeypatch.setenv("REPRO_OVERLAP", "1")
        settings = ExperimentSettings.from_env(n_trials=1)
        monkeypatch.setattr(fig8_serving, "AGENT_COUNTS", (2, 4))
        fig8 = fig8_serving.summarize(measure_grid(fig8_serving.grid(), settings))
        coela = fig8.series("coela")
        assert [cell.n_agents for cell in coela] == [2, 4]
        for cell in coela:
            assert cell.percall_minutes > cell.batched_minutes
        assert ablations.run(settings).latency_speedup("rec1_batching") > 1.0


#: Each serving field changed on a config that allows the change:
#: (before, after) as (serve_mode, overlap).
SERVING_CHANGES = {
    "serve": (("percall", False), ("batched", False)),
    "overlap": (("batched", False), ("batched", True)),
}

#: Execution-shape knobs, and the retired serving knobs: they change how
#: jobs run, or nothing, never what one computes.
EXECUTION_SHAPE = {
    **ENTRY_POINT_ENV,
    "REPRO_WORKERS": "4",
    "REPRO_TRIALS": "9",
    "REPRO_LEDGER": "/nonexistent/ledger.jsonl",
}


@pytest.mark.parametrize("change", [*SERVING_CHANGES, "execution-shape"])
def test_fingerprint(change, monkeypatch):
    """Every serving field is in the fingerprint, through the config; no
    knob is."""
    base = synthetic_job(seed=1)
    if change == "execution-shape":
        for name, value in EXECUTION_SHAPE.items():
            monkeypatch.setenv(name, value)
        assert job_fingerprint(synthetic_job(seed=1)) == job_fingerprint(base)
        assert knob_fingerprint() == {}
        return

    before, after = SERVING_CHANGES[change]
    jobs = [replace(base, config=with_serve_mode(base.config, *value)) for value in (before, after)]
    assert job_fingerprint(jobs[1]) != job_fingerprint(jobs[0])


def test_library_defaults_ignore_the_environment(monkeypatch, capsys):
    """With a stale shell exported, library code runs each config as it
    is declared; ``ExperimentSettings.from_env`` reads the trials and the
    workers, and the suite's ``main`` hands that value to ``run_all``."""
    for name, value in ENTRY_POINT_ENV.items():
        monkeypatch.setenv(name, value)
    assert ExperimentSettings() == ExperimentSettings(
        n_trials=5, executor="serial", max_workers=1
    )
    config = get_workload("embodiedgpt").config
    task = build_task(config, difficulty="easy", seed=1)
    assert trial_jobs(config, 1, difficulty="easy", base_seed=1)[0].config == config
    assert build_loop(config, task, seed=1).scheduler.mode == "percall"
    overlapped = with_serve_mode(config, "batched", overlap=True)
    assert build_loop(overlapped, task, seed=1).scheduler.mode == "batched"

    resolved = ExperimentSettings.from_env()
    assert resolved == ExperimentSettings(n_trials=3, executor="parallel", max_workers=2)
    passed = []
    monkeypatch.setattr(suite, "run_all", lambda settings: passed.append(settings) or "report")
    suite.main([])
    assert passed == [resolved]
    assert capsys.readouterr().out == "report\n"


SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Where each environment read may sit: (file under ``src/repro``,
#: enclosing qualified name, or ``None`` for anywhere in the file).
ENVIRONMENT_READERS = {
    "ExperimentSettings.from_env": ("experiments/suite.py", "main"),
    "os.environ": ("core/envknobs.py", None),
    "os.getenv": ("core/envknobs.py", None),
}


def _environment_reads() -> list[tuple[str, str, str, int]]:
    """Every ``ExperimentSettings.from_env`` reference and every
    ``os.environ`` / ``os.getenv`` use (attribute or ``from os import``)
    under ``src/repro``, as (what, file, enclosing qualified name, line)."""
    reads = []

    def visit(node: ast.AST, relative: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
                what = f"{child.value.id}.{child.attr}"
                if what in ENVIRONMENT_READERS:
                    reads.append((what, relative, scope, child.lineno))
            if isinstance(child, ast.ImportFrom) and child.module == "os":
                for alias in child.names:
                    if f"os.{alias.name}" in ENVIRONMENT_READERS:
                        reads.append((f"os.{alias.name}", relative, scope, child.lineno))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, relative, inner)

    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        visit(ast.parse(path.read_text(), filename=str(path)), relative, "")
    return reads


def test_only_entry_points_read_the_environment():
    """``ExperimentSettings.from_env`` is called only by
    ``experiments/suite.py: main``, and only ``core/envknobs.py`` touches
    ``os.environ`` / ``os.getenv``."""
    reads = _environment_reads()
    stray = []
    for what, relative, scope, line in reads:
        allowed_file, allowed_scope = ENVIRONMENT_READERS[what]
        if relative != allowed_file or allowed_scope not in (None, scope):
            stray.append(f"{relative}:{line}: {what} in {scope or '<module>'}")
    assert stray == []
    # The scan sees the sanctioned reads, so an empty list means something.
    assert {(what, scope) for what, _, scope, _ in reads} >= {
        ("ExperimentSettings.from_env", "main"),
        ("os.environ", "raw_knob"),
    }


#: One config per paradigm loop, plus the clustered hierarchy loop.
LOOP_CONFIGS = {
    "modular": get_workload("jarvis-1").config,
    "centralized": get_workload("mindagent").config,
    "decentralized": get_workload("coela").config,
    "hybrid": get_workload("hmas").config,
    "hierarchy": get_workload("hmas").config.with_optimizations(
        hierarchy_cluster_size=2
    ),
}


class _UnreadableEnvironment(dict):
    """An ``os.environ`` stand-in that fails every read."""

    def __getitem__(self, name):
        raise AssertionError(f"{name} read while an episode runs")

    def get(self, name, default=None):
        return self[name]


@pytest.mark.parametrize("paradigm", list(LOOP_CONFIGS))
def test_episodes_never_read_settings_while_running(paradigm, monkeypatch):
    """A loop reads its serving settings from its config while it builds;
    nothing reads the environment while the episode runs."""
    config = with_serve_mode(LOOP_CONFIGS[paradigm], "continuous", overlap=True)
    task = build_task(config, difficulty="easy", seed=2)
    loop = build_loop(config, task, seed=2)
    expected = build_loop(config, task, seed=2).run()
    monkeypatch.setattr(os, "environ", _UnreadableEnvironment())
    assert loop.run() == expected
