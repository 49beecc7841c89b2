"""Run settings: resolution order, job stamping, and the ledger fingerprint.

The regression tests come first: a ledger never resumes results computed
under other settings, and a pool warmed under one setting runs each later
job under that job's own settings.
"""

from __future__ import annotations

import threading
from dataclasses import fields, replace

import pytest

from repro.core.config import MemoryConfig, SystemConfig
from repro.core.fleet import job_fingerprint, knob_fingerprint
from repro.core.runner import build_loop, build_task, trial_jobs
from repro.core.settings import ENV_KNOBS, RunSettings, bind, current
from repro.core.synthetic import synthetic_job
from repro.experiments.common import ExperimentSettings, GridCell, measure_grid
from repro.workloads.registry import get_workload

SERIAL = ExperimentSettings(
    n_trials=2, executor="serial", max_workers=1, run=RunSettings()
)
VECTOR = RunSettings(detector="vector")


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    for name in ENV_KNOBS:
        monkeypatch.delenv(name, raising=False)


def _grid() -> list[GridCell]:
    """The noisy-perception grid of ``test_detector_golden``."""
    jarvis = get_workload("jarvis-1").config
    return [
        GridCell(
            config=replace(jarvis, memory=MemoryConfig(capacity_steps=30)),
            difficulty="hard",
        ),
        GridCell(config=get_workload("coela").config, n_agents=4),
    ]


class TestRegressions:
    def test_ledger_resume_honours_detector(self, tmp_path, monkeypatch):
        loop = measure_grid(_grid(), SERIAL)
        fresh_vector = measure_grid(_grid(), replace(SERIAL, run=VECTOR))
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger.jsonl"))
        measure_grid(_grid(), SERIAL)  # the ledger now holds loop results
        resumed = measure_grid(_grid(), replace(SERIAL, run=VECTOR))
        assert resumed == fresh_vector
        assert resumed != loop

    def test_warm_pool_honours_detector(self):
        parallel = replace(SERIAL, executor="parallel", max_workers=2)
        measure_grid(_grid(), parallel)  # forks and warms the shared pool
        serial_vector = measure_grid(_grid(), replace(SERIAL, run=VECTOR))
        parallel_vector = measure_grid(_grid(), replace(parallel, run=VECTOR))
        assert parallel_vector == serial_vector


#: (env, explicit, config pins, expected (serve, detector)).
RESOLUTION = {
    "defaults": ({}, None, {}, ("percall", "loop")),
    "serve-env": ({"REPRO_SERVE": "continuous"}, None, {}, ("continuous", "loop")),
    "serve-explicit-beats-env": (
        {"REPRO_SERVE": "continuous"},
        RunSettings(serve="batched"),
        {},
        ("batched", "loop"),
    ),
    "serve-pin-beats-explicit": (
        {},
        RunSettings(serve="batched"),
        {"serve_mode": "continuous"},
        ("continuous", "loop"),
    ),
    "serve-batching-beats-explicit": (
        {"REPRO_SERVE": "percall"},
        RunSettings(serve="continuous"),
        {"batching": True},
        ("batched", "loop"),
    ),
    "serve-pin-beats-batching": (
        {"REPRO_SERVE": "batched"},
        None,
        {"batching": True, "serve_mode": "percall"},
        ("percall", "loop"),
    ),
    "detector-env": ({"REPRO_DETECTOR": "vector"}, None, {}, ("percall", "vector")),
    "detector-explicit-beats-env": (
        {"REPRO_DETECTOR": "vector"},
        RunSettings(detector="loop"),
        {},
        ("percall", "loop"),
    ),
    "detector-pin-beats-explicit": (
        {},
        RunSettings(detector="loop"),
        {"detector_mode": "vector"},
        ("percall", "vector"),
    ),
}


@pytest.mark.parametrize("case", list(RESOLUTION))
def test_resolution_order(case, monkeypatch):
    """env < explicit < config pin, for jobs and for the loop's components."""
    env, explicit, pins, (serve, detector) = RESOLUTION[case]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    config = get_workload("embodiedgpt").config
    if pins:
        config = config.with_optimizations(**pins)
    job = trial_jobs(config, 1, difficulty="easy", base_seed=1, settings=explicit)[0]
    assert (job.settings.serve, job.settings.detector) == (serve, detector)
    loop = build_loop(config, build_task(config, seed=1), seed=1, settings=explicit)
    assert loop.settings == job.settings
    assert loop.scheduler.mode == serve
    assert loop.agents[0].sensing.detector_mode == detector


#: A non-default value for every field.
CHANGED = {
    "detector": "vector",
    "serve": "batched",
    "serve_cap": 2,
    "overlap": True,
}

#: Execution-shape knobs: they change how jobs run, never what one computes.
EXECUTION_SHAPE = {
    "REPRO_WORKERS": "4",
    "REPRO_TRIALS": "9",
    "REPRO_SHARDS": "3",
    "REPRO_LEDGER": "/nonexistent/ledger.jsonl",
    "REPRO_FLUSH_SECONDS": "7",
    "REPRO_COMPACT_RECORDS": "7",
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
        monkeypatch.setenv("REPRO_DETECTOR", " Vector ")
        monkeypatch.setenv("REPRO_SERVE_CAP", "3")
        monkeypatch.setenv("REPRO_OVERLAP", "1")
        assert RunSettings.from_env() == RunSettings(
            detector="vector", serve_cap=3, overlap=True
        )
        assert knob_fingerprint() == {
            "REPRO_DETECTOR": "Vector",
            "REPRO_SERVE_CAP": "3",
            "REPRO_OVERLAP": "1",
        }

    @pytest.mark.parametrize(
        "bad", [{"detector": "simd"}, {"serve": "streamed"}, {"serve_cap": 0}]
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            RunSettings(**bad)

    def test_bare_job_resolves_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_DETECTOR", "vector")
        job = synthetic_job(seed=1)
        monkeypatch.delenv("REPRO_DETECTOR")
        assert job.settings.detector == "vector"
        with bind(RunSettings(serve="batched")):
            assert synthetic_job(seed=1).settings.serve == "batched"

    def test_bindings_are_thread_local(self):
        seen = {}

        def worker(name, settings):
            with bind(settings):
                barrier.wait(timeout=10)  # both bindings are live at once
                seen[name] = current()

        barrier = threading.Barrier(2)
        threads = [
            threading.Thread(target=worker, args=("loop", RunSettings())),
            threading.Thread(target=worker, args=("vector", VECTOR)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert seen == {"loop": RunSettings(), "vector": VECTOR}
        assert current() == RunSettings()

    def test_loop_binds_its_settings_while_building(self):
        config = get_workload("jarvis-1").config
        task = build_task(config, difficulty="easy", seed=3)
        explicit = build_loop(config, task, seed=3, settings=VECTOR).run()
        with bind(VECTOR):
            ambient = build_loop(config, task, seed=3)
        assert ambient.run() == explicit  # run outside the binding
        assert build_loop(config, task, seed=3).run() != explicit


#: One config per paradigm loop, plus the clustered hierarchy loop.
LOOP_CONFIGS = {
    "modular": get_workload("jarvis-1").config,
    "centralized": get_workload("mindagent").config,
    "decentralized": get_workload("coela").config,
    "hybrid": get_workload("hmas").config,
    "end_to_end": SystemConfig(
        name="mini-vla",
        paradigm="end_to_end",
        env_name="kitchen",
        planning_model="vla-rt2",
        sensing_model=None,
    ),
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
