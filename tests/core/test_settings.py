"""Run settings: resolution order, job stamping, and the ledger fingerprint.

The regression tests come first: a ledger never resumes results computed
under other settings, and a pool warmed under one setting runs each later
job under that job's own settings.  Then where settings come from: the
library's plain defaults, whatever the shell exports, and the one entry
point that reads the environment.
"""

from __future__ import annotations

import ast
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.core.clock import SimClock
from repro.core.config import MemoryConfig
from repro.core.executor import TrialJob
from repro.core.fleet import job_fingerprint, knob_fingerprint
from repro.core.metrics import MetricsCollector
from repro.core.runner import build_loop, build_task, trial_jobs
from repro.core.settings import ENV_KNOBS, RunSettings
from repro.core.synthetic import synthetic_job
from repro.experiments import suite
from repro.experiments.common import ExperimentSettings, GridCell, measure_grid
from repro.llm.scheduler import InferenceScheduler
from repro.workloads.registry import get_workload

#: Every knob ``ExperimentSettings.from_env`` reads, at a non-default value.
ENTRY_POINT_ENV = {
    "REPRO_SERVE": "batched",
    "REPRO_OVERLAP": "1",
    "REPRO_TRIALS": "3",
    "REPRO_WORKERS": "2",
}

SERIAL = ExperimentSettings(
    n_trials=2, executor="serial", max_workers=1, run=RunSettings()
)
#: Same outcomes as per-call serving, different latency aggregates.
CONTINUOUS = RunSettings(serve="continuous")


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    for name in (*ENV_KNOBS, *ENTRY_POINT_ENV):
        monkeypatch.delenv(name, raising=False)


def _grid() -> list[GridCell]:
    """A hard single-agent cell and a four-agent team."""
    jarvis = get_workload("jarvis-1").config
    return [
        GridCell(
            config=replace(jarvis, memory=MemoryConfig(capacity_steps=30)),
            difficulty="hard",
        ),
        GridCell(config=get_workload("coela").config, n_agents=4),
    ]


class TestRegressions:
    def test_ledger_resume_honours_settings(self, tmp_path, monkeypatch):
        percall = measure_grid(_grid(), SERIAL)
        fresh = measure_grid(_grid(), replace(SERIAL, run=CONTINUOUS))
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger.jsonl"))
        measure_grid(_grid(), SERIAL)  # the ledger now holds per-call results
        resumed = measure_grid(_grid(), replace(SERIAL, run=CONTINUOUS))
        assert resumed == fresh
        assert resumed != percall

    def test_warm_pool_honours_settings(self):
        parallel = replace(SERIAL, executor="parallel", max_workers=2)
        warm = measure_grid(_grid(), parallel)  # forks and warms the shared pool
        serial = measure_grid(_grid(), replace(SERIAL, run=CONTINUOUS))
        pooled = measure_grid(_grid(), replace(parallel, run=CONTINUOUS))
        assert pooled == serial
        assert pooled != warm


#: Stands for the settings an entry point resolves from the environment.
FROM_ENV = "from_env"

#: (env, the caller's settings, config pins, expected serve); ``None``
#: passes no settings.
RESOLUTION = {
    "defaults": ({}, None, {}, "percall"),
    "serve-env": ({"REPRO_SERVE": "continuous"}, FROM_ENV, {}, "continuous"),
    "serve-explicit-beats-env": (
        {"REPRO_SERVE": "continuous"},
        RunSettings(serve="batched"),
        {},
        "batched",
    ),
    "serve-pin-beats-explicit": (
        {},
        RunSettings(serve="batched"),
        {"serve_mode": "continuous"},
        "continuous",
    ),
}


@pytest.mark.parametrize("case", list(RESOLUTION))
def test_resolution_order(case, monkeypatch):
    """The caller's settings (the entry point's environment, or explicit
    values) < config pin, for jobs and for the loop's scheduler; a caller
    that passes none gets the plain default, whatever the shell exports."""
    env, explicit, pins, serve = RESOLUTION[case]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    config = get_workload("embodiedgpt").config
    if pins:
        config = config.with_optimizations(**pins)
    if explicit == FROM_ENV:
        explicit = ExperimentSettings.from_env().run
    passed = {} if explicit is None else {"settings": explicit}
    job = trial_jobs(config, 1, difficulty="easy", base_seed=1, **passed)[0]
    assert job.settings.serve == serve
    loop = build_loop(config, build_task(config, seed=1), seed=1, **passed)
    assert loop.settings == job.settings
    assert loop.scheduler.mode == serve


#: A non-default value for every field.
CHANGED = {"serve": "batched", "overlap": True}

#: Execution-shape knobs: they change how jobs run, never what one computes.
EXECUTION_SHAPE = {
    "REPRO_WORKERS": "4",
    "REPRO_TRIALS": "9",
    "REPRO_LEDGER": "/nonexistent/ledger.jsonl",
}


@pytest.mark.parametrize(
    "change", [field.name for field in fields(RunSettings)] + ["execution-shape"]
)
def test_fingerprint(change, monkeypatch):
    """Every setting is in the fingerprint; no execution-shape knob is."""
    assert set(CHANGED) == {field.name for field in fields(RunSettings)}
    base = synthetic_job(seed=1)
    if change == "execution-shape":
        for name, value in EXECUTION_SHAPE.items():
            monkeypatch.setenv(name, value)
        assert job_fingerprint(synthetic_job(seed=1)) == job_fingerprint(base)
        assert knob_fingerprint() == {}
        return
    changed = replace(base, settings=replace(base.settings, **{change: CHANGED[change]}))
    assert job_fingerprint(changed) != job_fingerprint(base)


class TestRunSettings:
    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE", " Continuous ")
        monkeypatch.setenv("REPRO_OVERLAP", "1")
        assert RunSettings.from_env() == RunSettings(serve="continuous", overlap=True)
        assert knob_fingerprint() == {
            "REPRO_SERVE": "Continuous",
            "REPRO_OVERLAP": "1",
        }

    @pytest.mark.parametrize(
        "bad",
        # Only the environment parser canonicalizes case, and an empty
        # mode is not "unset" here as it is for the config pin.
        [{"serve": "streamed"}, {"serve": "Batched"}, {"serve": ""}],
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            RunSettings(**bad)

    def test_bare_job_resolves_at_construction(self, monkeypatch):
        """A bare job carries the plain default under its config's pin,
        resolved when it is built; the shell's knobs never reach it."""
        monkeypatch.setenv("REPRO_SERVE", "continuous")
        job = synthetic_job(seed=1)
        assert job.settings == RunSettings()
        pinned = job.config.with_optimizations(serve_mode="batched")
        assert TrialJob(pinned, job.task, job.seed).settings == RunSettings(serve="batched")

    def test_loop_passes_serve_to_its_scheduler(self, monkeypatch):
        config = get_workload("jarvis-1").config
        task = build_task(config, difficulty="easy", seed=3)
        explicit = build_loop(config, task, seed=3, settings=CONTINUOUS)
        assert explicit.scheduler.mode == "continuous"
        monkeypatch.setenv("REPRO_SERVE", "batched")
        assert build_loop(config, task, seed=3).scheduler.mode == "percall"
        resolved = build_loop(config, task, seed=3, settings=ExperimentSettings.from_env().run)
        assert resolved.scheduler.mode == "batched"
        # A standalone scheduler reads no settings: per call unless told.
        scheduler = InferenceScheduler(SimClock(), MetricsCollector("t", horizon=1))
        assert scheduler.mode == "percall"


def test_library_defaults_ignore_the_environment(monkeypatch, capsys):
    """With every entry-point knob exported, library code still runs under
    the plain defaults; ``ExperimentSettings.from_env`` reads all four, and
    the suite's ``main`` hands that value to ``run_all``."""
    for name, value in ENTRY_POINT_ENV.items():
        monkeypatch.setenv(name, value)
    assert ExperimentSettings() == ExperimentSettings(
        n_trials=5, executor="serial", max_workers=1, run=RunSettings()
    )
    config = get_workload("embodiedgpt").config
    task = build_task(config, difficulty="easy", seed=1)
    assert TrialJob(config, task, 1).settings == RunSettings()
    assert trial_jobs(config, 1, difficulty="easy", base_seed=1)[0].settings == RunSettings()
    loop = build_loop(config, task, seed=1)
    assert loop.settings == RunSettings()
    assert loop.scheduler.mode == "percall"

    resolved = ExperimentSettings.from_env()
    assert resolved == ExperimentSettings(
        n_trials=3,
        executor="parallel",
        max_workers=2,
        run=RunSettings(serve="batched", overlap=True),
    )
    passed = []
    monkeypatch.setattr(suite, "run_all", lambda settings: passed.append(settings) or "report")
    suite.main([])
    assert passed == [resolved]
    assert capsys.readouterr().out == "report\n"


SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Where each environment read may sit: (file under ``src/repro``,
#: enclosing qualified name, or ``None`` for anywhere in the file).
ENVIRONMENT_READERS = {
    "RunSettings.from_env": ("experiments/common.py", "ExperimentSettings.from_env"),
    "ExperimentSettings.from_env": ("experiments/suite.py", "main"),
    "os.environ": ("core/envknobs.py", None),
    "os.getenv": ("core/envknobs.py", None),
}


def _environment_reads() -> list[tuple[str, str, str, int]]:
    """Every ``RunSettings.from_env`` / ``ExperimentSettings.from_env``
    reference and every ``os.environ`` / ``os.getenv`` use (attribute or
    ``from os import``) under ``src/repro``, as (what, file, enclosing
    qualified name, line)."""
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
    """``RunSettings.from_env`` is called only by ``ExperimentSettings.from_env``,
    which only ``experiments/suite.py: main`` calls, and only
    ``core/envknobs.py`` touches ``os.environ`` / ``os.getenv``."""
    reads = _environment_reads()
    stray = []
    for what, relative, scope, line in reads:
        allowed_file, allowed_scope = ENVIRONMENT_READERS[what]
        if relative != allowed_file or allowed_scope not in (None, scope):
            stray.append(f"{relative}:{line}: {what} in {scope or '<module>'}")
    assert stray == []
    # The scan sees the sanctioned reads, so an empty list means something.
    assert {(what, scope) for what, _, scope, _ in reads} >= {
        ("RunSettings.from_env", "ExperimentSettings.from_env"),
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


@pytest.mark.parametrize("paradigm", list(LOOP_CONFIGS))
def test_episodes_never_read_settings_while_running(paradigm, monkeypatch):
    """Settings are read where things are built, never mid-episode."""
    config = LOOP_CONFIGS[paradigm]
    task = build_task(config, difficulty="easy", seed=2)
    loop = build_loop(config, task, seed=2, settings=RunSettings(serve="continuous"))
    expected = build_loop(config, task, seed=2, settings=loop.settings).run()

    def unreadable(cls):
        raise AssertionError("run settings read while an episode runs")

    monkeypatch.setattr(RunSettings, "from_env", classmethod(unreadable))
    assert loop.run() == expected
