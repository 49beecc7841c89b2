"""Re-baselined goldens for the vector detector (``REPRO_DETECTOR=vector``).

The vector detector waives byte-identity against the ``loop`` reference
(the batched stream assigns different uniforms to the recall checks), so
it ships with its own golden aggregates: they must match the committed
golden file, so a silent change to the vector stream (a reordered or
dropped draw) fails CI.

Regenerate after an intentional stream change with::

    REPRO_REGEN_GOLDENS=1 pytest tests/perception/test_detector_golden.py

and commit the diff alongside the change that caused it
(docs/performance.md documents the procedure).
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

from repro.core.config import MemoryConfig
from repro.core.metrics import AggregateResult
from repro.core.settings import RunSettings
from repro.experiments.common import ExperimentSettings, GridCell, measure_grid
from repro.workloads.registry import get_workload

GOLDEN_PATH = Path(__file__).parent / "goldens" / "GOLDEN_detector_vector.json"

SETTINGS = ExperimentSettings(n_trials=2, executor="serial", max_workers=1)


def _settings(**run) -> ExperimentSettings:
    return replace(SETTINGS, run=RunSettings(**run))


def _grid() -> list[GridCell]:
    """Small noisy-perception grid: mask-rcnn/vild-style profiles with
    distractor vocabularies, so recall *and* mislabel draws are live."""
    jarvis = get_workload("jarvis-1").config
    return [
        GridCell(
            config=replace(jarvis, memory=MemoryConfig(capacity_steps=30)),
            difficulty="hard",
        ),
        GridCell(config=get_workload("coela").config, n_agents=4),
    ]


def _serialize(aggregates: list[AggregateResult]) -> list[dict]:
    payload = []
    for aggregate in aggregates:
        entry = {
            "workload": aggregate.workload,
            "n_trials": aggregate.n_trials,
            "success_rate": aggregate.success_rate,
            "mean_steps": aggregate.mean_steps,
            "mean_sim_minutes": aggregate.mean_sim_minutes,
            "mean_seconds_per_step": aggregate.mean_seconds_per_step,
            "module_seconds": {
                module.value: seconds
                for module, seconds in sorted(
                    aggregate.module_seconds.items(), key=lambda kv: kv[0].value
                )
            },
            "mean_llm_calls": aggregate.mean_llm_calls,
            "mean_prompt_tokens": aggregate.mean_prompt_tokens,
            "llm_fraction": aggregate.llm_fraction,
            "message_usefulness": aggregate.message_usefulness,
            "mean_messages_sent": aggregate.mean_messages_sent,
            "mean_goal_progress": aggregate.mean_goal_progress,
        }
        payload.append(entry)
    return payload


def test_vector_mode_golden_aggregates():
    payload = _serialize(measure_grid(_grid(), _settings(detector="vector")))
    if os.environ.get("REPRO_REGEN_GOLDENS", "").strip() == "1":
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert payload == golden, (
        "vector-detector aggregates drifted from the committed golden; if "
        "the stream change is intentional, regenerate with "
        "REPRO_REGEN_GOLDENS=1 and commit the diff"
    )


def test_vector_mode_differs_from_loop_under_noise():
    """The waiver is real: noisy-profile aggregates differ across modes.

    If this ever starts passing with equal aggregates, the vector path
    has quietly fallen back to the loop (or the grid lost its noisy
    profiles) and the golden above is no longer testing anything.
    """
    grid = _grid()
    loop = measure_grid(grid, _settings(detector="loop"))
    vector = measure_grid(grid, _settings(detector="vector"))
    assert loop != vector
