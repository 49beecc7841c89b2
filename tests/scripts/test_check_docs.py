"""The reference and golden-cell-count checks of ``scripts/check_docs.py``."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("check_docs", ROOT / "scripts" / "check_docs.py")
check_docs = sys.modules["check_docs"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)

FILES = ["src/repro/envs/base.py", "docs/performance.md", "pyproject.toml"]


def test_present_path_passes():
    text = "See `src/repro/envs/base.py` and `./docs/performance.md`."
    assert check_docs.stale_references(text, FILES) == []


def test_missing_path_fails():
    text = "The cache lives in `envs/candidates.py`; see `envs/base.py`."
    assert check_docs.stale_references(text, FILES) == ["envs/candidates.py"]


def test_bare_basename_resolves_by_suffix():
    assert check_docs.stale_references("`pyproject.toml`, `base.py`", FILES) == []
    # A suffix must end at a path separator.
    assert check_docs.stale_references("`ase.py`", FILES) == ["ase.py"]


def test_globs_and_annotated_spans_are_not_references():
    text = "`BENCH_*.json`, `envs/*.py` and `core/bus.py: DeliveryBus`"
    assert check_docs.stale_references(text, FILES) == []


def test_repository_docs_name_only_existing_files():
    assert check_docs.check_file_references() == []


PY_FILES = ["src/repro/core/fleet.py", "src/repro/envs/base.py", "src/repro/core/config.py"]


def test_defined_symbols_resolve():
    text = (
        "`core/fleet.py: dispatch(jobs, executor, ledger=None)`, "
        "`core/fleet.py: SEMANTICS_VERSION`, `fleet.py: JobLedger.append_done`, "
        "`envs/base.py: candidates` and `core/config.py: OptimizationConfig`"
    )
    assert check_docs.stale_symbols(text, PY_FILES) == []


def test_stale_symbol_fails():
    # FleetRunner was deleted from core/fleet.py; the docs may not name it.
    text = "`core/fleet.py: FleetRunner`, `core/fleet.py: JobLedger.run_jobs`"
    assert check_docs.stale_symbols(text, PY_FILES) == [
        "core/fleet.py: FleetRunner",
        "core/fleet.py: JobLedger.run_jobs",
    ]


def test_span_wrapped_after_the_colon_resolves():
    text = "guarded by `core/fleet.py:\nJobLedger.append_done` and `envs/base.py:\n  candidates`"
    assert check_docs.SYMBOL_REFERENCE.findall(text) == [
        ("core/fleet.py", "JobLedger.append_done"),
        ("envs/base.py", "candidates"),
    ]
    assert check_docs.stale_symbols(text, PY_FILES) == []


def test_stale_span_wrapped_after_the_colon_fails():
    text = "see `core/fleet.py:\nFleetRunner` and `core/config.py:\n    OptimizationConfig.shard`"
    assert check_docs.stale_symbols(text, PY_FILES) == [
        "core/fleet.py: FleetRunner",
        "core/config.py: OptimizationConfig.shard",
    ]


def test_symbol_in_missing_file_fails():
    text = "`envs/candidates.py: candidates` and `ase.py: Environment`"
    assert check_docs.stale_symbols(text, PY_FILES) == [
        "envs/candidates.py: candidates",
        "ase.py: Environment",
    ]


def test_repository_docs_name_only_defined_symbols():
    assert check_docs.check_symbol_references() == []


def test_stale_golden_cell_count_fails(tmp_path):
    goldens = tmp_path / "GOLDEN_episodes.json"
    goldens.write_text(json.dumps({f"cell-{index}": "digest" for index in range(82)}))
    cells = check_docs.golden_cell_count(goldens)
    assert cells == 82
    text = "Goldens (`tests/core/test_goldens.py`, 78 grid cells) pin behaviour."
    assert check_docs.stale_cell_counts(text, cells) == ["78"]
    wrapped = "runs 82 grid\ncells, and elsewhere 1,024 grid cells"
    assert check_docs.stale_cell_counts(wrapped, cells) == ["1,024"]


def test_repository_docs_quote_the_golden_cell_count():
    assert check_docs.check_golden_cells() == []
