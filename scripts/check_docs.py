"""Documentation checks: links, knob coverage, and doctests.

Run as ``make docs-check`` (CI's ``docs`` and ``serving-docs`` jobs).
Six offline checks:

1. **Markdown links** — every relative link in ``README.md`` and
   ``docs/*.md`` must point at an existing file, and every in-document
   or cross-document ``#anchor`` must match a heading in its target.
   External ``http(s)`` links are not fetched (CI must not depend on
   network), only recognized and skipped.
2. **Knob coverage** — every ``REPRO_*`` environment knob referenced in
   ``src/`` or ``benchmarks/`` must be documented in
   ``docs/performance.md`` (the acceptance bar: docs cover every knob
   that exists in the source), and every *serving-layer* knob
   (``REPRO_SERVE*``, ``REPRO_OVERLAP``) must also appear in
   ``docs/serving.md`` — the serving guide may not drift behind the
   scheduler it documents.
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

Exits non-zero with a list of problems; prints a one-line summary when
clean.
"""

from __future__ import annotations

import doctest
import importlib
import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
KNOB_DOC = REPO / "docs" / "performance.md"
SERVING_DOC = REPO / "docs" / "serving.md"
BASELINES = REPO / "benchmarks" / "baselines"

#: Knob prefixes the serving guide must cover in addition to the master
#: table in performance.md.
SERVING_KNOB_PREFIXES = ("REPRO_SERVE", "REPRO_OVERLAP")

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
KNOB = re.compile(r"\bREPRO_[A-Z_]+\b")
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
    problems = []
    documented = set(KNOB.findall(KNOB_DOC.read_text()))
    problems.extend(
        f"docs/performance.md: undocumented knob {knob} (referenced in source)"
        for knob in sorted(in_source - documented)
    )
    serving_knobs = {
        knob for knob in in_source if knob.startswith(SERVING_KNOB_PREFIXES)
    }
    in_guide = set(KNOB.findall(SERVING_DOC.read_text()))
    problems.extend(
        f"docs/serving.md: serving knob {knob} missing from the serving guide"
        for knob in sorted(serving_knobs - in_guide)
    )
    return problems


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
        + check_knob_coverage()
        + check_stale_knobs()
        + check_baselines()
        + check_doctests()
        + check_markdown_doctests()
    )
    if problems:
        print("docs-check failed:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    n_links = sum(len(LINK.findall(doc.read_text())) for doc in DOC_FILES)
    print(
        f"docs-check ok: {len(DOC_FILES)} files, {n_links} links, "
        "all source knobs documented (serving guide covered), no stale knobs, "
        "quoted baselines match, module and markdown doctests green"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
