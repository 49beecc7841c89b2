"""The benchmark's workloads: which grid each one runs, and its digest.

Each workload is one grid of ``repro`` cells measured through the same
public entry point the figures use (``experiments.common.measure_grid``
with ``ExperimentSettings``).  The seed given on the command line is the
grid's ``base_seed``; every trial seed derives from it, so one seed
always names the same episodes.

The digest is the correctness oracle: a SHA-256 over a canonical
rendering of the grid's aggregates (sorted-key JSON of
``dataclasses.asdict``, floats by ``repr``).  Modeled virtual-clock
minutes are paper results, not benchmark metrics; they reach the
benchmark only through this digest.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass

DEFAULT_SEED = 2025


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line on why the benchmark runs this grid (also in BENCHMARK.json).
    why: str
    #: Registry workload names; ``None`` means every registered workload.
    subjects: tuple[str, ...] | None
    difficulties: tuple[str, ...]
    #: Team sizes per cell; ``None`` keeps the workload's declared size.
    agent_counts: tuple[int | None, ...]
    trials: int
    #: Parallel executor (``nproc`` workers) with a fresh ledger, instead
    #: of the serial in-process executor with no ledger.
    sweep: bool


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fig7-scale",
            why=(
                "Fig. 7's largest teams (8 and 12 agents, hard): planning fan-out, "
                "dialogue windows, the delivery bus and memory commits dominate"
            ),
            subjects=("mindagent", "coela", "combo"),
            difficulties=("hard",),
            agent_counts=(8, 12),
            trials=5,
            sweep=False,
        ),
        Workload(
            name="solo-modular",
            why=(
                "single-agent modular stacks on hard: perception, retrieval, low-level "
                "planners, reflection and wide candidate sets; bus and dialogue idle"
            ),
            subjects=("embodiedgpt", "jarvis-1", "dadu-e", "mp5", "deps"),
            difficulties=("hard",),
            agent_counts=(None,),
            trials=40,
            sweep=False,
        ),
        Workload(
            name="suite-sweep",
            why=(
                "all 14 workloads on easy and medium through the parallel executor and "
                "a fresh ledger: dispatch, pickling, ledger writes and resume reads"
            ),
            subjects=None,
            difficulties=("easy", "medium"),
            agent_counts=(None,),
            trials=16,
            sweep=True,
        ),
    )
}

#: Digest of each workload's aggregates at ``DEFAULT_SEED`` and its
#: default trial count, recorded from the code the benchmark was
#: defined on.  A mismatch fails the run.
EXPECTED_DIGESTS: dict[str, str] = {
    "fig7-scale": "140dcae6abe918ebc3176a24ab7c0ef6877f2585ec239fe5856ae1278258448b",
    "solo-modular": "bcac8b666a248f0e9aefb7d3bb22b98ee7b6e69f881c35d4533601c75f7245c6",
    "suite-sweep": "5e74fd538b8b91a6fb63a7145388cb0968db5d574841476ecffc375e1e5b8821",
}


def build_cells(workload: Workload) -> list:
    """The workload's grid, subject-major then difficulty then team size."""
    from repro.experiments.common import GridCell
    from repro.workloads.registry import get_workload, list_workloads

    subjects = workload.subjects or tuple(list_workloads())
    return [
        GridCell(
            config=get_workload(subject).config,
            difficulty=difficulty,
            n_agents=n_agents,
        )
        for subject in subjects
        for difficulty in workload.difficulties
        for n_agents in workload.agent_counts
    ]


def _canonical(value: object) -> object:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        return {_key(key): _canonical(item) for key, item in value.items()}
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


def canonical_json(aggregates: list) -> str:
    """Sorted-key JSON of the aggregates, floats rendered by ``repr``."""
    return json.dumps(
        _canonical(list(aggregates)), sort_keys=True, separators=(",", ":")
    )


def digest(aggregates: list) -> str:
    return hashlib.sha256(canonical_json(aggregates).encode("utf-8")).hexdigest()
