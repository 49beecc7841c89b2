"""Documentation checks: links, file references, knob coverage, and doctests.

Run as ``make docs-check`` (CI's ``docs`` job).
Nine offline checks:

1. **Markdown links** — every relative link in ``README.md`` and
   ``docs/*.md`` must point at an existing file, and every in-document
   or cross-document ``#anchor`` must match a heading in its target.
   External ``http(s)`` links are not fetched (CI must not depend on
   network), only recognized and skipped.
2. **Knob coverage** — every ``REPRO_*`` environment knob referenced in
   ``src/`` or ``benchmarks/`` must be documented in
   ``docs/performance.md`` (the acceptance bar: docs cover every knob
   that exists in the source).
3. **No stale knobs** — the reverse: every ``REPRO_*`` knob named in
   ``README.md`` or ``docs/*.md`` must occur in ``src/``,
   ``benchmarks/``, ``scripts/`` or ``tests/``, so deleting a knob
   fails until its documentation goes too.
4. **Module doctests** — ``doctest.testmod`` over every ``src/repro``
   module whose source contains a ``>>>`` prompt, so examples in
   docstrings cannot rot silently.
5. **Markdown doctests** — the ``>>>`` examples embedded in
   ``README.md``/``docs/*.md`` run through ``doctest`` too (per file,
   shared globals top to bottom), so guide examples stay executable.
6. **Quoted baselines** — every ratio in the "Current committed
   baselines" table of ``docs/performance.md`` must equal the field it
   names in ``benchmarks/baselines/``, and every baseline file must be
   quoted there, so the prose cannot drift from the gates.
7. **File references** — every backticked repository path in
   ``README.md`` and ``docs/*.md`` (a code span that is one path ending
   in ``.py``, ``.json``, ``.jsonl``, ``.yml``, ``.md`` or ``.toml``)
   must name an existing file: equal to a repo-relative path, or a
   ``/``-suffix of one (``core/bus.py`` for ``src/repro/core/bus.py``),
   after stripping a leading ``./``.  Deleting or moving a file then
   fails until the docs stop naming it.
8. **Symbol references** — every backticked ``path.py: name`` span in
   ``README.md`` and ``docs/*.md`` (a call signature may follow the
   name) must name a function, class, ``Class.member`` or module-level
   assignment of a file the path resolves to as in check 7, found by
   parsing that file with ``ast``; a method also resolves by its bare
   name.  Deleting or renaming a symbol then fails until the docs stop
   naming it.
9. **Golden cell count** — every "N grid cells" in ``README.md`` and
   ``docs/*.md`` must equal the number of records in
   ``tests/core/goldens/GOLDEN_episodes.json``, so adding or dropping a
   golden cell fails until the docs quote the new size.

Exits non-zero with a list of problems; prints a one-line summary when
clean.
"""

from __future__ import annotations

import ast
import doctest
import functools
import importlib
import json
import os
import re
import sys
from collections.abc import Iterable
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
KNOB_DOC = REPO / "docs" / "performance.md"
BASELINES = REPO / "benchmarks" / "baselines"
GOLDENS = REPO / "tests" / "core" / "goldens" / "GOLDEN_episodes.json"

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: A code span holding one repository path (globs such as
#: ``BENCH_*.json`` and ``path.py: name`` spans do not match).
FILE_REFERENCE = re.compile(r"`([\w./-]+\.(?:py|json|jsonl|yml|md|toml))`")
#: A code span naming a symbol of a Python file: ``path.py: name``, where
#: ``name`` may be ``Class.member`` and may be followed by a signature.
#: Any whitespace may follow the colon, so a span wrapped there counts.
SYMBOL_REFERENCE = re.compile(r"`([\w./-]+\.py):\s+([A-Za-z_][\w.]*)[^`]*`")
#: Directories whose files the references never name.
UNLISTED_DIRS = frozenset({".git", "__pycache__", ".e2ebench"})
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
KNOB = re.compile(r"\bREPRO_[A-Z_]+\b")
#: A quoted size of the golden grid ("82 grid cells").
GRID_CELLS = re.compile(r"\b(\d[\d,]*)\s+grid\s+cells\b")
#: A row of the baselines table: file, field, and the quoted ratio.
BASELINE_ROW = re.compile(
    r"^\|[^|]*\|\s*`(BENCH_\w+\.json)`\s*\|\s*`(\w+)`\s*\|\s*\*\*([\d.]+)×\*\*",
    re.MULTILINE,
)


def _anchor(heading: str) -> str:
    """GitHub-style anchor for a heading."""
    text = heading.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(markdown: str) -> set[str]:
    return {_anchor(match) for match in HEADING.findall(markdown)}


def check_links() -> list[str]:
    problems = []
    for doc in DOC_FILES:
        text = doc.read_text()
        for target in LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            if path_part:
                resolved = (doc.parent / path_part).resolve()
                if not resolved.exists():
                    problems.append(f"{doc.relative_to(REPO)}: broken link -> {target}")
                    continue
            else:
                resolved = doc
            if fragment:
                if resolved.suffix != ".md":
                    continue
                if _anchor(fragment) not in _anchors(resolved.read_text()):
                    problems.append(
                        f"{doc.relative_to(REPO)}: missing anchor -> {target}"
                    )
    return problems


def repo_files() -> list[str]:
    """Repo-relative POSIX paths of every file outside :data:`UNLISTED_DIRS`."""
    files = []
    for root, dirs, names in os.walk(REPO):
        dirs[:] = [name for name in dirs if name not in UNLISTED_DIRS]
        base = Path(root).relative_to(REPO)
        files.extend((base / name).as_posix() for name in names)
    return files


def stale_references(markdown: str, files: Iterable[str]) -> list[str]:
    """The backticked paths in ``markdown`` that name none of ``files``."""
    suffixes = set()
    for path in files:
        parts = path.split("/")
        suffixes.update("/".join(parts[index:]) for index in range(len(parts)))
    return [
        reference
        for reference in FILE_REFERENCE.findall(markdown)
        if reference.removeprefix("./") not in suffixes
    ]


def check_file_references() -> list[str]:
    files = repo_files()
    return [
        f"{doc.relative_to(REPO)}: `{reference}` names no file in the repository"
        for doc in DOC_FILES
        for reference in stale_references(doc.read_text(), files)
    ]


def _bound_names(node: ast.stmt) -> list[str]:
    """Names a module- or class-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


@functools.cache
def defined_names(path: str) -> frozenset[str]:
    """Module-level functions, classes and assignments of one repository
    file, plus each class member both bare and as ``Class.member``."""
    names: set[str] = set()
    for node in ast.parse((REPO / path).read_text()).body:
        names.update(_bound_names(node))
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                for name in _bound_names(member):
                    names.update((name, f"{node.name}.{name}"))
    return frozenset(names)


def stale_symbols(markdown: str, files: Iterable[str]) -> list[str]:
    """The ``path.py: name`` spans in ``markdown`` that no file defines.

    ``files`` are repository-relative paths; a span's path resolves to
    each file it equals or is a ``/``-suffix of.
    """
    files = list(files)
    stale = []
    for path, name in SYMBOL_REFERENCE.findall(markdown):
        path = path.removeprefix("./")
        matches = [file for file in files if file == path or file.endswith("/" + path)]
        if not any(name in defined_names(file) for file in matches):
            stale.append(f"{path}: {name}")
    return stale


def check_symbol_references() -> list[str]:
    files = [file for file in repo_files() if file.endswith(".py")]
    return [
        f"{doc.relative_to(REPO)}: `{reference}` names nothing that file defines"
        for doc in DOC_FILES
        for reference in stale_symbols(doc.read_text(), files)
    ]


def _knobs_in(*roots: str) -> set[str]:
    """Every ``REPRO_*`` name in the Python files under ``roots``."""
    found: set[str] = set()
    for root in roots:
        for path in (REPO / root).rglob("*.py"):
            if path != Path(__file__).resolve():
                found.update(KNOB.findall(path.read_text()))
    return found


def check_knob_coverage() -> list[str]:
    in_source = _knobs_in("src", "benchmarks")
    documented = set(KNOB.findall(KNOB_DOC.read_text()))
    return [
        f"docs/performance.md: undocumented knob {knob} (referenced in source)"
        for knob in sorted(in_source - documented)
    ]


def check_stale_knobs() -> list[str]:
    in_code = _knobs_in("src", "benchmarks", "scripts", "tests")
    return [
        f"{doc.relative_to(REPO)}: knob {knob} occurs in no source, "
        "benchmark, script or test"
        for doc in DOC_FILES
        for knob in sorted(set(KNOB.findall(doc.read_text())) - in_code)
    ]


def check_baselines() -> list[str]:
    text = KNOB_DOC.read_text()
    start = text.find("Current committed baselines")
    if start < 0:
        return ["docs/performance.md: no 'Current committed baselines' table"]
    end = text.find("\n#", start)
    rows = BASELINE_ROW.findall(text[start : end if end >= 0 else None])
    problems = []
    for name, field, quoted in rows:
        path = BASELINES / name
        if not path.exists():
            problems.append(f"docs/performance.md: baseline {name} does not exist")
            continue
        committed = json.loads(path.read_text()).get(field)
        if committed is None or float(quoted) != float(committed):
            problems.append(
                f"docs/performance.md: quotes {quoted}× for {name} {field}, "
                f"the file holds {committed}"
            )
    quoted_files = {name for name, _, _ in rows}
    problems.extend(
        f"docs/performance.md: baseline {path.name} is not quoted"
        for path in sorted(BASELINES.glob("BENCH_*.json"))
        if path.name not in quoted_files
    )
    return problems


def golden_cell_count(path: Path = GOLDENS) -> int:
    """The number of records (grid cells) in a golden episodes file."""
    return len(json.loads(path.read_text()))


def stale_cell_counts(markdown: str, cells: int) -> list[str]:
    """The "N grid cells" quotes in ``markdown`` whose N is not ``cells``."""
    return [
        quoted
        for quoted in GRID_CELLS.findall(markdown)
        if int(quoted.replace(",", "")) != cells
    ]


def check_golden_cells() -> list[str]:
    cells = golden_cell_count()
    return [
        f"{doc.relative_to(REPO)}: quotes {quoted} grid cells, "
        f"{GOLDENS.relative_to(REPO)} holds {cells}"
        for doc in DOC_FILES
        for quoted in stale_cell_counts(doc.read_text(), cells)
    ]


def check_doctests() -> list[str]:
    problems = []
    src = REPO / "src"
    sys.path.insert(0, str(src))
    for path in sorted(src.rglob("*.py")):
        if ">>> " not in path.read_text():
            continue
        module_name = ".".join(path.relative_to(src).with_suffix("").parts)
        module = importlib.import_module(module_name)
        result = doctest.testmod(module)
        if result.failed:
            problems.append(f"{module_name}: {result.failed} doctest failure(s)")
        elif result.attempted == 0:
            problems.append(f"{module_name}: contains '>>>' but no runnable doctest")
    return problems


def check_markdown_doctests() -> list[str]:
    """Run the ``>>>`` examples embedded in the markdown docs.

    Each file is one doctest: examples share globals top to bottom, so a
    guide can import once and build on earlier results.  Failures print
    doctest's usual expected/got report before the summary line.
    """
    problems = []
    sys.path.insert(0, str(REPO / "src"))
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    for doc in DOC_FILES:
        text = doc.read_text()
        if ">>> " not in text:
            continue
        name = str(doc.relative_to(REPO))
        test = parser.get_doctest(text, {}, name, name, 0)
        result = runner.run(test, clear_globs=True)
        if result.failed:
            problems.append(f"{name}: {result.failed} doctest failure(s)")
        elif result.attempted == 0:
            problems.append(f"{name}: contains '>>>' but no runnable doctest")
    return problems


def main() -> int:
    problems = (
        check_links()
        + check_file_references()
        + check_symbol_references()
        + check_knob_coverage()
        + check_stale_knobs()
        + check_baselines()
        + check_golden_cells()
        + check_doctests()
        + check_markdown_doctests()
    )
    if problems:
        print("docs-check failed:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    n_links = sum(len(LINK.findall(doc.read_text())) for doc in DOC_FILES)
    n_references = sum(len(FILE_REFERENCE.findall(doc.read_text())) for doc in DOC_FILES)
    n_symbols = sum(len(SYMBOL_REFERENCE.findall(doc.read_text())) for doc in DOC_FILES)
    print(
        f"docs-check ok: {len(DOC_FILES)} files, {n_links} links, "
        f"{n_references} file and {n_symbols} symbol references resolve, "
        "all source knobs documented, no stale knobs, quoted baselines and "
        "golden cell counts match, module and markdown doctests green"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
