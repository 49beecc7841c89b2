"""Synthetic trial jobs and runners for dispatch benches and crash tests.

The executor's ``job_runner`` seam accepts any module-level picklable
``TrialJob -> EpisodeResult`` function.  Real episodes are the wrong
instrument for measuring *dispatch* (their runtime drowns the scheduling
signal) and the wrong vehicle for crash drills (you cannot ask a
paradigm loop to die on cue), so this module provides job shapes whose
behavior is written on the job itself:

- :func:`synthetic_job` builds a fully valid, picklable
  :class:`~repro.core.executor.TrialJob` whose ``task.params`` carry a
  wall-clock ``duration`` and the token volume its episode should
  report.
- :func:`sleep_runner` sleeps that duration and returns a deterministic
  :class:`~repro.core.metrics.EpisodeResult` — pure dispatch load for
  ``benchmarks/bench_fleet.py``'s pipelined-vs-barriered comparison
  (sleeping jobs are not CPU-bound, so even a 2-core CI machine runs a
  4-worker pool truly concurrently).

Both are module-level by design: process pools pickle runners by
qualified name.  The crash tests wrap :func:`sleep_runner` in a runner
that dies on the seeds it is handed (``crash_runner`` in
``tests/conftest.py``).
"""

from __future__ import annotations

import time

from repro.core.config import SystemConfig
from repro.core.executor import TrialJob
from repro.core.metrics import EpisodeResult
from repro.core.types import TaskSpec

_SYNTH_ENV = "kitchen"  # any registered env name; the loop never runs


def synthetic_job(
    name: str = "synthetic",
    seed: int = 0,
    duration: float = 0.0,
    prompt_tokens: int = 60,
    output_tokens: int = 40,
    model: str = "llama-3-8b",
) -> TrialJob:
    """A valid, picklable trial job whose behavior rides in ``task.params``."""
    config = SystemConfig(
        name=name,
        paradigm="modular",
        env_name=_SYNTH_ENV,
        planning_model=model,
    )
    task = TaskSpec(
        env_name=_SYNTH_ENV,
        difficulty="easy",
        n_agents=1,
        horizon=1,
        seed=seed,
        params={
            "duration": duration,
            "prompt_tokens": prompt_tokens,
            "output_tokens": output_tokens,
            "model": model,
        },
    )
    return TrialJob(config=config, task=task, seed=seed)


def sleep_runner(job: TrialJob) -> EpisodeResult:
    """Sleep the job's scripted duration, return a deterministic result."""
    params = job.task.params
    duration = float(params.get("duration", 0.0))
    if duration > 0.0:
        time.sleep(duration)
    prompt = int(params.get("prompt_tokens", 0))
    output = int(params.get("output_tokens", 0))
    model = str(params.get("model", job.config.planning_model))
    return EpisodeResult(
        workload=job.config.name,
        success=True,
        steps=1,
        horizon=job.task.horizon,
        sim_seconds=duration,
        goal_progress=1.0,
        module_seconds={},
        llm_calls=1,
        prompt_tokens=prompt,
        output_tokens=output,
        messages_sent=0,
        messages_useful=0,
        faults={},
        reflections_triggered=0,
        replans=0,
        deployment_tokens={model: (prompt, output)} if prompt or output else {},
    )

