"""Committed goldens: the oracle for what an episode computes.

Each record pins one grid cell of two seeded trials:

- ``aggregate`` — the cell's canonical :class:`AggregateResult`;
- ``phases`` — each episode's per-(module, phase) latency totals, in the
  order the clock first saw each key;
- ``episodes`` — one SHA-256 per episode over its golden-era canonical
  form: the canonical :class:`EpisodeResult` without ``prompt_series``,
  plus every step record and token sample of the collector that ran it
  (results carried both lists when the goldens were recorded).

The grid covers the 14 registered workloads on easy under each serving
mode, on easy under continuous serving with perception–generation
overlap, and on medium per-call, plus memory-capacity and team-size
variants, the optimized configs of the ablations (the hierarchical
loop, multi-step planning, plan-then-communicate and the message
filter) and a memoryless team that talks.  The goldens were recorded
from the seed implementation (the ablation cells from the tree just
before the team loops shared one joint planner, the memoryless team
from the tree just before the delivery bus became the only owner of
staged deliveries), so a reordered rng draw, a skipped cache
invalidation, or a float summed in a different order fails here.  A
slice is re-run on the 2-worker parallel executor against the same
records.

Regenerate after an intentional behaviour change with::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/core/test_goldens.py

and commit the diff alongside the change that caused it
(docs/performance.md documents the procedure).

``SEMANTICS_PIN.json`` pins, per ``SEMANTICS_VERSION``, the field names
of :class:`EpisodeResult` and one SHA-256 per golden record, so a
changed result shape or a re-recorded cell fails until the version is
bumped (which makes older ledgers re-run their jobs).  Regeneration
adds an entry for a new version and never rewrites an existing one.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from repro.core.config import SERVE_MODES
from repro.core.executor import TrialJob
from repro.core.fleet import SEMANTICS_VERSION, dispatch
from repro.core.metrics import EpisodeResult, MetricsCollector, aggregate
from repro.core.runner import build_loop, trial_jobs
from repro.experiments.common import ExperimentSettings, GridCell
from repro.llm.prompt import MAX_DIALOGUE_MESSAGES, PromptBuilder
from repro.llm.tokenizer import count_tokens
from repro.workloads.registry import get_workload, list_workloads

GOLDEN_PATH = Path(__file__).parent / "goldens" / "GOLDEN_episodes.json"
PIN_PATH = GOLDEN_PATH.parent / "SEMANTICS_PIN.json"

N_TRIALS = 2
BASE_SEED = 2025


def _grid() -> dict[str, GridCell]:
    """Cell id -> cell; ids read difficulty/serving/subject."""
    cells: dict[str, GridCell] = {}
    names = list_workloads()
    for serve in SERVE_MODES:
        for name in names:
            cells[f"easy/{serve}/{name}"] = GridCell(
                config=get_workload(name).config.with_optimizations(serve_mode=serve),
                difficulty="easy",
            )
    for name in names:
        cells[f"easy/continuous+overlap/{name}"] = GridCell(
            config=get_workload(name).config.with_optimizations(
                serve_mode="continuous", overlap=True
            ),
            difficulty="easy",
        )
    for name in names:
        cells[f"medium/percall/{name}"] = GridCell(
            config=get_workload(name).config, difficulty="medium"
        )
    # Memory windows (small, past the confusion onset, dual) and teams
    # large enough for multi-round dialogue with many receivers.
    jarvis = get_workload("jarvis-1").config
    variants = {
        "medium/percall/jarvis-1+capacity2": GridCell(
            config=jarvis.with_memory(capacity_steps=2)
        ),
        "hard/percall/jarvis-1+capacity90": GridCell(
            config=jarvis.with_memory(capacity_steps=90), difficulty="hard"
        ),
        "medium/percall/jarvis-1+capacity30-dual": GridCell(
            config=jarvis.with_memory(capacity_steps=30, dual=True)
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
        # The optimized configs of the ablations (Recs. 7-10), whose loops
        # and phases the workload cells never run.  These cells and the
        # memoryless team were recorded when each transform renamed its
        # config, and a result carries the name: each keeps its recorded one.
        "medium/percall/mindagent+8agents+hierarchy4": GridCell(
            config=replace(
                get_workload("mindagent")
                .config.with_agents(8)
                .with_optimizations(hierarchy_cluster_size=4),
                name="mindagent-opt",
            )
        ),
        "medium/percall/combo+multistep3": GridCell(
            config=replace(
                get_workload("combo").config.with_optimizations(multistep_horizon=3),
                name="combo-opt",
            )
        ),
        "medium/percall/coela+plan-then-comm": GridCell(
            config=replace(
                get_workload("coela").config.with_optimizations(plan_then_comm=True),
                name="coela-opt",
            )
        ),
        "medium/percall/dmas+comm-filter": GridCell(
            config=replace(
                get_workload("dmas").config.with_optimizations(comm_filter=True),
                name="dmas-opt",
            )
        ),
        # A team that talks without memory: deliveries reach only the
        # prompt dialogue and the beliefs, and charge no dialogue store.
        "medium/percall/coela+no-memory": GridCell(
            config=replace(get_workload("coela").config.without("memory"), name="coela-no-memory")
        ),
    }
    cells.update(variants)
    return cells


GRID = _grid()

#: Re-run on the parallel executor: one cell per paradigm family.
PARALLEL_SLICE = (
    "easy/batched/jarvis-1",
    "easy/continuous+overlap/coela",
    "medium/percall/hmas",
    "medium/percall/coela+6agents",
    "medium/percall/mindagent+8agents+hierarchy4",
)

#: Re-run with every prompt rendered and recounted: dialogue lists past
#: the window cap (coela, 6 agents), a long action history and memory
#: (jarvis-1, 90-step window), and one candidates section per agent
#: (centralized mindagent).
PROMPT_SLICE = (
    "medium/percall/coela+6agents",
    "hard/percall/jarvis-1+capacity90",
    "medium/percall/mindagent+4agents",
)


def _jobs(cell: GridCell) -> list[TrialJob]:
    return trial_jobs(
        cell.config,
        N_TRIALS,
        difficulty=cell.difficulty or "medium",
        n_agents=cell.n_agents,
        base_seed=BASE_SEED,
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


def _episode_digest(result: EpisodeResult, metrics: MetricsCollector) -> str:
    """SHA-256 of the golden-era canonical form of one episode."""
    canonical = _canonical(result)
    del canonical["prompt_series"]
    canonical["records"] = _canonical(metrics.records)
    canonical["token_samples"] = _canonical(metrics.token_samples)
    blob = json.dumps(dict(sorted(canonical.items())), separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _reference_series(samples: list) -> dict[str, list[tuple[int, int]]]:
    """Fig. 6's series as the raw samples gave it before results dropped
    them: the largest plan or message prompt per (agent, purpose, step)."""
    best: dict[tuple[str, str, int], int] = defaultdict(int)
    for sample in samples:
        if sample.purpose not in ("plan", "message"):
            continue
        key = (sample.agent, sample.purpose, sample.step)
        best[key] = max(best[key], sample.prompt_tokens)
    series: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for (agent, purpose, step), tokens in sorted(best.items()):
        series[f"{agent}:{purpose}"].append((step, tokens))
    return dict(series)


def _episode(job: TrialJob):
    """One golden episode in-process: its result and the loop that ran it."""
    loop = build_loop(job.config, job.task, job.seed)
    return loop.run(), loop


def _run_cell(cell: GridCell) -> dict:
    """Run a cell's trials in-process, keeping each episode's clock.

    Also the oracle for Fig. 6's series: each collector's
    ``prompt_series()`` must equal :func:`_reference_series` over its
    samples, and an unflagged job's result must carry none.
    """
    results = []
    phases = []
    digests = []
    for job in _jobs(cell):
        result, loop = _episode(job)
        results.append(result)
        phases.append(
            {
                f"{module.value}/{phase}": repr(seconds)
                for (module, phase), seconds in loop.clock.elapsed_by_phase().items()
            }
        )
        digests.append(_episode_digest(result, loop.metrics))
        reference = _reference_series(loop.metrics.token_samples)
        series = loop.metrics.prompt_series()
        assert series == {
            name: tuple(value for point in points for value in point)
            for name, points in reference.items()
        }, job.describe()
        assert list(series) == list(reference), job.describe()
        assert result.prompt_series == {}, job.describe()
    return {"aggregate": _canonical(aggregate(results)), "phases": phases, "episodes": digests}


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
    records = {cell_id: _run_cell(cell) for cell_id, cell in GRID.items()}
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


def _record_digest(record: dict) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _semantics_entry() -> dict:
    """What one ``SEMANTICS_VERSION`` pins: the result's field names in
    order, and a digest of every golden cell's record."""
    return {
        "fields": [field.name for field in dataclasses.fields(EpisodeResult)],
        "cells": {
            cell_id: _record_digest(record) for cell_id, record in _load_goldens().items()
        },
    }


def test_semantics_pin():
    """A result's shape or a golden record changes only with a new
    ``SEMANTICS_VERSION``; cells appended to the goldens pass."""
    pins = json.loads(PIN_PATH.read_text())
    version = str(SEMANTICS_VERSION)
    current = _semantics_entry()
    if version not in pins and os.environ.get("REPRO_REGEN_GOLDENS", "").strip() == "1":
        pins[version] = current
        PIN_PATH.write_text(json.dumps(pins, indent=1) + "\n")
    assert version in pins, (
        f"SEMANTICS_VERSION {version} has no pin; record it with REPRO_REGEN_GOLDENS=1"
    )
    pinned = pins[version]
    assert current["fields"] == pinned["fields"], (
        f"EpisodeResult's fields changed under SEMANTICS_VERSION {version}: bump it"
    )
    changed = [
        cell_id
        for cell_id, digest in pinned["cells"].items()
        if current["cells"].get(cell_id) != digest
    ]
    assert not changed, (
        f"{len(changed)} golden cell(s) changed or went under SEMANTICS_VERSION "
        f"{version}: {changed}; bump it"
    )


def test_parallel_executor_matches_goldens():
    """Two pool workers reproduce the serial aggregates, and each pool
    result pickles equal to the in-process result of its job, whose
    episode digest is the golden one."""
    golden = _load_goldens()
    settings = ExperimentSettings(n_trials=N_TRIALS, executor="parallel", max_workers=2)
    jobs = [job for cell_id in PARALLEL_SLICE for job in _jobs(GRID[cell_id])]
    results = dispatch(jobs, settings.make_executor())
    for index, cell_id in enumerate(PARALLEL_SLICE):
        cell_results = results[index * N_TRIALS : (index + 1) * N_TRIALS]
        expected = golden[cell_id]["aggregate"]
        assert _canonical(aggregate(cell_results)) == expected, cell_id
    for index, (job, result) in enumerate(zip(jobs, results)):
        local, loop = _episode(job)
        assert pickle.dumps(result) == pickle.dumps(local), job.describe()
        digests = golden[PARALLEL_SLICE[index // N_TRIALS]]["episodes"]
        assert _episode_digest(local, loop.metrics) == digests[index % N_TRIALS]


def test_grid_exercises_every_serving_mode_and_dialogue():
    """Guard the grid's shape: the goldens must keep testing something.

    Deferred serving batches requests, overlap moves latency, the team
    cells send many messages of which only some are useful, each
    optimized cell runs the path its recommendation adds, and the
    memoryless team delivers messages without storing them.
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

    def charged(cell_id: str, key: str) -> bool:
        return all(key in phases for phases in golden[cell_id]["phases"])

    def messages(cell_id: str) -> float:
        return float(golden[cell_id]["aggregate"]["mean_messages_sent"])

    assert charged("medium/percall/mindagent+8agents+hierarchy4", "planning/cluster_plan")
    assert charged("medium/percall/combo+multistep3", "planning/plan_multi")
    assert messages("medium/percall/coela+plan-then-comm") < messages("medium/percall/coela")
    assert messages("medium/percall/dmas+comm-filter") < messages("medium/percall/dmas")
    no_memory = "medium/percall/coela+no-memory"
    assert messages(no_memory) > 0
    assert not any("memory/store_dialogue" in phases for phases in golden[no_memory]["phases"])


def test_prompt_arithmetic_matches_rendered_text(monkeypatch):
    """On a golden slice, every prompt's section counts equal plain
    tokenization of the section's rendered text, and the prompt's total
    is their sum, while the episodes still reproduce their goldens."""
    seen = {"window": 0, "candidate_sections": 0, "history": 0}
    build = PromptBuilder.build

    def checked_build(builder):
        prompt = build(builder)
        for section in prompt.sections:
            assert section.tokens == count_tokens.__wrapped__(section.text), section.name
        assert prompt.tokens == sum(section.tokens for section in prompt.sections)
        names = [section.name for section in prompt.sections]
        seen["candidate_sections"] = max(
            seen["candidate_sections"], names.count("candidates")
        )
        seen["history"] += "action_history" in names
        for section in prompt.sections:
            if section.name == "dialogue":
                seen["window"] = max(seen["window"], len(section.source))
        return prompt

    monkeypatch.setattr(PromptBuilder, "build", checked_build)
    golden = _load_goldens()
    for cell_id in PROMPT_SLICE:
        record = _run_cell(GRID[cell_id])
        assert json.dumps(record) == json.dumps(golden[cell_id]), cell_id
    assert seen["window"] == MAX_DIALOGUE_MESSAGES
    assert seen["candidate_sections"] >= 4
    assert seen["history"] > 0
