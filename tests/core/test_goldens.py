"""Committed goldens: the oracle for what an episode computes.

Each record pins one grid cell of two seeded trials:

- ``aggregate`` — the cell's canonical :class:`AggregateResult`;
- ``phases`` — each episode's per-(module, phase) latency totals, in the
  order the clock first saw each key;
- ``episodes`` — one SHA-256 per episode over its canonical
  :class:`EpisodeResult` (every step record and token sample included).

The grid covers the 14 registered workloads on easy under each serving
mode, on easy under continuous serving with perception–generation
overlap, and on medium per-call, plus memory-capacity and team-size
variants.  The goldens were recorded from the seed implementation, so a
reordered rng draw, a skipped cache invalidation, or a float summed in a
different order fails here.  A slice is re-run on the 2-worker parallel
executor against the same records.

Regenerate after an intentional behaviour change with::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/core/test_goldens.py

and commit the diff alongside the change that caused it
(docs/performance.md documents the procedure).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path

from repro.core.config import MemoryConfig
from repro.core.executor import TrialJob
from repro.core.metrics import EpisodeResult, aggregate
from repro.core.runner import build_loop, trial_jobs
from repro.core.settings import SERVE_MODES, RunSettings
from repro.experiments.common import ExperimentSettings, GridCell
from repro.workloads.registry import get_workload, list_workloads

GOLDEN_PATH = Path(__file__).parent / "goldens" / "GOLDEN_episodes.json"

N_TRIALS = 2
BASE_SEED = 2025
BASE = RunSettings()


def _capped(name: str, capacity_steps: int, dual: bool = False):
    config = get_workload(name).config
    return replace(config, memory=MemoryConfig(capacity_steps=capacity_steps, dual=dual))


def _grid() -> dict[str, tuple[GridCell, RunSettings]]:
    """Cell id -> (cell, run settings); ids read difficulty/serving/subject."""
    cells: dict[str, tuple[GridCell, RunSettings]] = {}
    names = list_workloads()
    for serve in SERVE_MODES:
        for name in names:
            cells[f"easy/{serve}/{name}"] = (
                GridCell(config=get_workload(name).config, difficulty="easy"),
                replace(BASE, serve=serve),
            )
    for name in names:
        cells[f"easy/continuous+overlap/{name}"] = (
            GridCell(config=get_workload(name).config, difficulty="easy"),
            replace(BASE, serve="continuous", overlap=True),
        )
    for name in names:
        cells[f"medium/percall/{name}"] = (
            GridCell(config=get_workload(name).config, difficulty="medium"),
            BASE,
        )
    # Memory windows (small, past the confusion onset, dual) and teams
    # large enough for multi-round dialogue with many receivers.
    variants = {
        "medium/percall/jarvis-1+capacity2": GridCell(config=_capped("jarvis-1", 2)),
        "hard/percall/jarvis-1+capacity90": GridCell(
            config=_capped("jarvis-1", 90), difficulty="hard"
        ),
        "medium/percall/jarvis-1+capacity30-dual": GridCell(
            config=_capped("jarvis-1", 30, dual=True)
        ),
        "medium/percall/mindagent+4agents": GridCell(
            config=get_workload("mindagent").config, n_agents=4
        ),
        "medium/percall/coela+4agents": GridCell(
            config=get_workload("coela").config, n_agents=4
        ),
        "medium/percall/combo+4agents": GridCell(
            config=get_workload("combo").config, n_agents=4
        ),
        "easy/percall/hmas+4agents": GridCell(
            config=get_workload("hmas").config, n_agents=4, difficulty="easy"
        ),
        "medium/percall/coela+6agents": GridCell(
            config=get_workload("coela").config, n_agents=6
        ),
    }
    for cell_id, cell in variants.items():
        cells[cell_id] = (cell, BASE)
    return cells


GRID = _grid()

#: Re-run on the parallel executor: one cell per paradigm family.
PARALLEL_SLICE = (
    "easy/batched/jarvis-1",
    "easy/continuous+overlap/coela",
    "medium/percall/hmas",
    "medium/percall/coela+6agents",
)


def _jobs(cell: GridCell, run: RunSettings) -> list[TrialJob]:
    return trial_jobs(
        cell.config,
        N_TRIALS,
        difficulty=cell.difficulty or "medium",
        n_agents=cell.n_agents,
        base_seed=BASE_SEED,
        settings=run,
    )


def _canonical(value: object) -> object:
    """JSON-ready form: dataclasses as dicts, sorted keys, floats by repr."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        items = [(_key(key), _canonical(item)) for key, item in value.items()]
        return dict(sorted(items))
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    return value


def _key(key: object) -> str:
    if isinstance(key, enum.Enum):
        return f"{type(key).__name__}.{key.name}"
    return str(key)


def _episode_digest(result: EpisodeResult) -> str:
    blob = json.dumps(_canonical(result), separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _record(results: list[EpisodeResult], phases: list[dict] | None) -> dict:
    record = {"aggregate": _canonical(aggregate(results))}
    if phases is not None:
        record["phases"] = phases
    record["episodes"] = [_episode_digest(result) for result in results]
    return record


def _run_cell(cell: GridCell, run: RunSettings) -> dict:
    """Run a cell's trials in-process, keeping each episode's clock."""
    results = []
    phases = []
    for job in _jobs(cell, run):
        loop = build_loop(job.config, job.task, job.seed, settings=job.settings)
        results.append(loop.run())
        phases.append(
            {
                f"{module.value}/{phase}": repr(seconds)
                for (module, phase), seconds in loop.clock.elapsed_by_phase().items()
            }
        )
    return _record(results, phases)


def _load_goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _drifted(records: dict, golden: dict) -> list[str]:
    """Cell ids whose record differs from the golden (key order included)."""
    return [
        cell_id
        for cell_id, record in records.items()
        if json.dumps(record) != json.dumps(golden.get(cell_id))
    ]


def test_episodes_match_goldens():
    records = {cell_id: _run_cell(cell, run) for cell_id, (cell, run) in GRID.items()}
    if os.environ.get("REPRO_REGEN_GOLDENS", "").strip() == "1":
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(records, indent=1) + "\n")
    golden = _load_goldens()
    assert list(golden) == list(records), "golden grid and test grid differ"
    drifted = _drifted(records, golden)
    assert not drifted, (
        f"{len(drifted)} cell(s) drifted from the committed goldens: {drifted}; "
        "if the behaviour change is intentional, regenerate with "
        "REPRO_REGEN_GOLDENS=1 and commit the diff"
    )


def test_parallel_executor_matches_goldens():
    """Two pool workers reproduce the serial records' aggregates and episodes."""
    golden = _load_goldens()
    settings = ExperimentSettings(
        n_trials=N_TRIALS, executor="parallel", max_workers=2, run=BASE
    )
    jobs = [job for cell_id in PARALLEL_SLICE for job in _jobs(*GRID[cell_id])]
    results = settings.make_executor().run_jobs(jobs)
    for index, cell_id in enumerate(PARALLEL_SLICE):
        cell_results = results[index * N_TRIALS : (index + 1) * N_TRIALS]
        expected = dict(golden[cell_id])
        del expected["phases"]  # clocks stay in the workers
        assert _record(cell_results, None) == expected, cell_id


def test_grid_exercises_every_serving_mode_and_dialogue():
    """Guard the grid's shape: the goldens must keep testing something.

    Deferred serving batches requests, overlap moves latency, and the
    team cells send many messages of which only some are useful.
    """
    golden = _load_goldens()
    coela = golden["medium/percall/coela+6agents"]["aggregate"]
    assert float(coela["mean_messages_sent"]) >= 50
    assert 0.0 < float(coela["message_usefulness"]) < 1.0
    batched = golden["easy/batched/coela"]["aggregate"]
    assert float(batched["mean_batch_occupancy"]) > 1.0
    plain = golden["easy/continuous/coela"]["aggregate"]
    overlapped = golden["easy/continuous+overlap/coela"]["aggregate"]
    assert float(overlapped["mean_sim_minutes"]) < float(plain["mean_sim_minutes"])
