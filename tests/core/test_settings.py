"""Run settings: resolution order, job stamping, and the ledger fingerprint.

The regression tests come first: a ledger never resumes results computed
under other settings, and a pool warmed under one setting runs each later
job under that job's own settings.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.core.clock import SimClock
from repro.core.config import MemoryConfig
from repro.core.fleet import job_fingerprint, knob_fingerprint
from repro.core.metrics import MetricsCollector
from repro.core.runner import build_loop, build_task, trial_jobs
from repro.core.settings import ENV_KNOBS, RunSettings
from repro.core.synthetic import synthetic_job
from repro.experiments.common import ExperimentSettings, GridCell, measure_grid
from repro.llm.scheduler import InferenceScheduler
from repro.workloads.registry import get_workload

SERIAL = ExperimentSettings(
    n_trials=2, executor="serial", max_workers=1, run=RunSettings()
)
#: Same outcomes as per-call serving, different latency aggregates.
CONTINUOUS = RunSettings(serve="continuous")


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    for name in ENV_KNOBS:
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


#: (env, explicit, config pins, expected serve).
RESOLUTION = {
    "defaults": ({}, None, {}, "percall"),
    "serve-env": ({"REPRO_SERVE": "continuous"}, None, {}, "continuous"),
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
    """env < explicit < config pin, for jobs and for the loop's scheduler."""
    env, explicit, pins, serve = RESOLUTION[case]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    config = get_workload("embodiedgpt").config
    if pins:
        config = config.with_optimizations(**pins)
    job = trial_jobs(config, 1, difficulty="easy", base_seed=1, settings=explicit)[0]
    assert job.settings.serve == serve
    loop = build_loop(config, build_task(config, seed=1), seed=1, settings=explicit)
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
        monkeypatch.setenv("REPRO_SERVE", "continuous")
        job = synthetic_job(seed=1)
        monkeypatch.delenv("REPRO_SERVE")
        assert job.settings.serve == "continuous"

    def test_loop_passes_serve_to_its_scheduler(self, monkeypatch):
        config = get_workload("jarvis-1").config
        task = build_task(config, difficulty="easy", seed=3)
        explicit = build_loop(config, task, seed=3, settings=CONTINUOUS)
        assert explicit.scheduler.mode == "continuous"
        monkeypatch.setenv("REPRO_SERVE", "batched")
        assert build_loop(config, task, seed=3).scheduler.mode == "batched"
        # A standalone scheduler reads no settings: per call unless told.
        scheduler = InferenceScheduler(SimClock(), MetricsCollector("t", horizon=1))
        assert scheduler.mode == "percall"


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
