"""Check that every function in ``src/repro`` is reached and every attribute
and module constant read.

Runs what CI runs, at CI's trial counts, with a ``sys.setprofile`` hook
that records every function of ``src/repro`` each interpreter calls:

1. ``python -m repro.experiments.suite`` at ``REPRO_TRIALS=1``, serially
   and at ``REPRO_WORKERS=2``;
2. every ``examples/*.py`` at ``REPRO_TRIALS=1``;
3. ``pytest tests/core/test_goldens.py`` (the golden grid and its
   2-worker slice);
4. ``scripts/resume_smoke.py``;
5. ``pytest benchmarks/ --benchmark-disable`` at ``REPRO_TRIALS=2
   REPRO_WORKERS=2`` (pytest-benchmark pauses the profiler around each
   measured call unless benchmarking is disabled);
6. one untraced one-trial ``e2ebench/episode_pass.py`` pass per workload
   that ``BENCHMARK.json`` lists.

The hook is a ``sitecustomize.py`` written into a fresh temporary
directory that goes first on each command's ``PYTHONPATH``; it writes
its ``(path, co_qualname)`` pairs next to its own file when its
interpreter exits, forked pool workers included.  Every ``def`` under
``src/repro`` (read with ``ast``; abstract methods and ``Protocol``
members have no body that runs and are skipped) must be reached, unless
:data:`ALLOWED` lists it with its reason, and no listed ``def`` may be
reached: the list only shrinks.

Data that nothing reads survives a per-``def`` check, so a static check
covers attributes as well: every attribute a ``src/repro`` class declares
(a field in the class body, or a ``self.x = ...`` in one of its methods)
must be loaded by name somewhere in ``src/repro`` (``obj.x``, or a string
passed to ``getattr`` or ``attrgetter``; an augmented assignment alone is
not a read), unless :data:`ALLOWED_ATTRIBUTES` lists it with its reader
outside ``src/repro``.  Module constants get the same check: every
non-dunder name an assignment in a ``src/repro`` module's body binds
must be loaded somewhere in ``src/repro`` (``NAME`` or ``module.NAME``),
unless :data:`ALLOWED_NAMES` lists it with its reader.  The same four
rules apply to both lists.

Usage::

    python scripts/reach.py        # or: make reach

Prints the counts; exits non-zero, naming each offending ``def`` or
attribute, when the run set, the tree and the lists disagree or a command
of the run set fails.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Reasons a ``def`` may stay unreached by every run path.
REASONS = ("test oracle", "test seam", "interface")

#: ``path.py: qualname`` (path relative to ``src/repro``) of every
#: ``def`` no run path reaches by design, with its reason.
ALLOWED = {
    "llm/prompt.py: Prompt.render": "test oracle",
    "core/clock.py: SimClock.wait": "test seam",
    "llm/scheduler.py: InferenceScheduler.pending": "test seam",
    "envs/kitchen.py: KitchenEnv.expected_primitives": "interface",
}

#: Who reads an attribute or a module-level name that no code in
#: ``src/repro`` loads by name.
ATTRIBUTE_REASONS = (
    "e2ebench",  # its digests (through ``asdict``) or its probes
    "golden digest",  # tests/core/test_goldens.py hashes it
    "test oracle",  # tests check the modeled behaviour against it
    "unpacked",  # read by tuple unpacking
    "catalog",  # a column of the paper's tables
    "open item",  # ROADMAP.md names the change that will read it
)

#: ``path.py: Class.attr`` of every declared attribute that no code in
#: ``src/repro`` loads by name, with its reader outside ``src/repro``.
ALLOWED_ATTRIBUTES = {
    "core/metrics.py: AggregateResult.mean_goal_progress": "e2ebench",
    "core/metrics.py: AggregateResult.mean_request_latency": "e2ebench",
    "core/metrics.py: AggregateResult.message_usefulness": "e2ebench",
    "core/fleet.py: JobLedger.bytes_read": "e2ebench",
    "core/fleet.py: JobLedger.bytes_appended": "e2ebench",
    "core/types.py: StepRecord.reflected": "golden digest",
    "core/types.py: StepRecord.replanned": "golden digest",
    "core/types.py: StepRecord.execution_success": "golden digest",
    "core/modules/memory.py: RetrievedMemory.scanned_entries": "test oracle",
    "core/modules/memory.py: RetrievedMemory.confused": "test oracle",
    "llm/behavior.py: DecisionOutcome.p_correct": "test oracle",
    "experiments/fig8_serving.py: ServingCell.inflight_joins": "test oracle",
    "experiments/fig4_local_models.py: ModelCell.seconds_per_inference": "test oracle",
    "envs/mineworld.py: DemandStep.station": "unpacked",
    "workloads/base.py: Workload.datasets": "catalog",
    "llm/profiles.py: LLMProfile.context_window": "open item",
}

#: ``path.py: NAME`` of every module-level name that no code in
#: ``src/repro`` loads, with its reader outside ``src/repro``.
ALLOWED_NAMES: dict[str, str] = {}

HOOK = '''\
"""Records which functions under {root!r} this interpreter calls."""

import atexit
import json
import multiprocessing.util
import os
import sys
import tempfile

_ROOT = {root!r}
_OUT = os.path.dirname(os.path.abspath(__file__))
#: ``inspect.CO_NEWLOCALS``: set on function bodies, never on module or
#: class bodies.
_CO_NEWLOCALS = 0x0002
_codes = {{}}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _codes[id(code)] = code


def _dump():
    sys.setprofile(None)
    reached = sorted(
        {{
            (os.path.relpath(code.co_filename, _ROOT), code.co_qualname)
            for code in _codes.values()
            if code.co_filename.startswith(_ROOT + os.sep)
            and code.co_flags & _CO_NEWLOCALS
            and not code.co_name.startswith("<")  # lambdas and comprehensions
        }}
    )
    fd, _ = tempfile.mkstemp(prefix=f"reach-{{os.getpid()}}-", suffix=".json", dir=_OUT)
    with os.fdopen(fd, "w") as out:
        json.dump(reached, out)


def _after_fork(_):
    # A pool worker clears every finalizer registered before it started
    # and leaves through os._exit, so atexit never runs there.  It may
    # have been forked from a thread the profiler was never set on.
    _codes.clear()
    multiprocessing.util.Finalize(None, _dump, exitpriority=100)
    sys.setprofile(_profile)


multiprocessing.util.register_after_fork(_dump, _after_fork)
atexit.register(_dump)
sys.setprofile(_profile)
'''


def write_hook(directory: Path, root: Path) -> None:
    """Write the hook into ``directory``, recording functions under ``root``."""
    (directory / "sitecustomize.py").write_text(HOOK.format(root=str(root.resolve())))


def read_dump(dump: Path) -> set[str]:
    """Every ``path.py: qualname`` one hooked interpreter recorded."""
    return {
        f"{Path(path).as_posix()}: {qualname}"
        for path, qualname in json.loads(dump.read_text())
    }


def read_dumps(directory: Path) -> set[str]:
    """Every ``path.py: qualname`` the hooked interpreters recorded."""
    return set().union(*map(read_dump, directory.glob("reach-*.json")))


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute):
            names.add(target.attr)
        elif isinstance(target, ast.Name):
            names.add(target.id)
    return names


def _is_protocol(node: ast.ClassDef) -> bool:
    return any(
        (isinstance(base, ast.Name) and base.id == "Protocol")
        or (isinstance(base, ast.Attribute) and base.attr == "Protocol")
        for base in node.bases
    )


def module_defs(tree: ast.Module) -> set[str]:
    """The ``co_qualname`` of every ``def`` in ``tree`` that has a body to run."""
    found = set()

    def visit(node: ast.AST, prefix: str, skip: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", skip or _is_protocol(child))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                if not skip and "abstractmethod" not in _decorator_names(child):
                    found.add(qualname)
                visit(child, f"{qualname}.<locals>.", skip)
            else:
                visit(child, prefix, skip)

    visit(tree, "", False)
    return found


def enumerate_defs(package: Path) -> set[str]:
    """Every ``path.py: qualname`` under ``package`` that has a body to run."""
    defs = set()
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        defs.update(f"{relative}: {qualname}" for qualname in module_defs(tree))
    return defs


def _ratchet(
    names: set[str],
    used: set[str],
    allowed: dict[str, str],
    reasons: tuple[str, ...],
    unused_word: str,
    used_word: str,
) -> list[str]:
    unlisted = names - used - set(allowed)
    problems = [f"{unused_word} and not allowlisted: {name}" for name in sorted(unlisted)]
    problems += [f"allowlisted but {used_word}: {name}" for name in sorted(set(allowed) & used)]
    problems += [
        f"allowlisted but defined nowhere: {name}" for name in sorted(set(allowed) - names)
    ]
    problems += [
        f"unknown reason {reason!r}: {name}"
        for name, reason in sorted(allowed.items())
        if reason not in reasons
    ]
    return problems


def check(defs: set[str], reached: set[str], allowed: dict[str, str]) -> list[str]:
    """What the ratchet fails on: one line per offending ``def``."""
    return _ratchet(defs, reached, allowed, REASONS, "unreached", "reached")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _self_stores(method: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Every ``x`` of a ``self.x = ...`` (plain or annotated) in ``method``."""
    names = set()
    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for store in ast.walk(target):
                if (
                    isinstance(store, ast.Attribute)
                    and isinstance(store.value, ast.Name)
                    and store.value.id == "self"
                ):
                    names.add(store.attr)
    return names


def module_attributes(tree: ast.Module) -> set[str]:
    """``Class.attr`` of every attribute a class in ``tree`` declares."""
    found = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.ClassDef):
                visit(child, prefix)
                continue
            qualname = prefix + child.name
            for statement in child.body:
                if isinstance(statement, ast.Assign):
                    targets = statement.targets
                elif isinstance(statement, ast.AnnAssign):
                    targets = [statement.target]
                elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.update(f"{qualname}.{name}" for name in _self_stores(statement))
                    continue
                else:
                    continue
                found.update(
                    f"{qualname}.{target.id}"
                    for target in targets
                    if isinstance(target, ast.Name) and not _is_dunder(target.id)
                )
            visit(child, f"{qualname}.")

    visit(tree, "")
    return found


def _called_name(call: ast.Call) -> str | None:
    function = call.func
    if isinstance(function, ast.Attribute):
        return function.attr
    return function.id if isinstance(function, ast.Name) else None


def module_reads(tree: ast.Module) -> set[str]:
    """Every attribute name ``tree`` loads: ``obj.x``, or a string passed
    to ``getattr`` or ``attrgetter`` (each part of a dotted path)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Call) and _called_name(node) in ("getattr", "attrgetter"):
            for argument in node.args:
                if isinstance(argument, ast.Constant) and isinstance(argument.value, str):
                    names.update(argument.value.split("."))
    return names


def _parsed(package: Path):
    """Each module under ``package``: its relative path and its tree."""
    for path in sorted(package.rglob("*.py")):
        yield path.relative_to(package).as_posix(), ast.parse(path.read_text(), filename=str(path))


def enumerate_attributes(package: Path) -> tuple[set[str], set[str]]:
    """Every ``path.py: Class.attr`` declared under ``package``, and those
    of them whose name some code under ``package`` loads."""
    declared, loaded = set(), set()
    for relative, tree in _parsed(package):
        declared.update(f"{relative}: {name}" for name in module_attributes(tree))
        loaded |= module_reads(tree)
    return declared, {name for name in declared if name.rpartition(".")[2] in loaded}


def check_attributes(declared: set[str], read: set[str], allowed: dict[str, str]) -> list[str]:
    """What the attribute check fails on: one line per offending attribute."""
    return _ratchet(declared, read, allowed, ATTRIBUTE_REASONS, "unread", "read")


def module_names(tree: ast.Module) -> set[str]:
    """Every non-dunder name an assignment in ``tree``'s body binds."""
    found = set()
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        else:
            continue
        for target in targets:
            found.update(
                node.id
                for node in ast.walk(target)
                if isinstance(node, ast.Name) and not _is_dunder(node.id)
            )
    return found


def enumerate_names(package: Path) -> tuple[set[str], set[str]]:
    """Every ``path.py: NAME`` bound at module level under ``package``, and
    those of them that some code under ``package`` loads as ``NAME`` or
    ``module.NAME``."""
    declared, loaded = set(), set()
    for relative, tree in _parsed(package):
        declared.update(f"{relative}: {name}" for name in module_names(tree))
        loaded |= module_reads(tree)
        loaded.update(
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        )
    return declared, {name for name in declared if name.rpartition(": ")[2] in loaded}


def check_names(declared: set[str], read: set[str], allowed: dict[str, str]) -> list[str]:
    """What the module-level name check fails on: one line per offending name."""
    return _ratchet(declared, read, allowed, ATTRIBUTE_REASONS, "unread", "read")


def run_set(out_dir: Path):
    """Yield each command CI runs, with its ``REPRO_*`` settings."""
    python = sys.executable
    one = {"REPRO_TRIALS": "1"}
    yield [python, "-m", "repro.experiments.suite"], one
    yield [python, "-m", "repro.experiments.suite"], {**one, "REPRO_WORKERS": "2"}
    for example in sorted(ROOT.glob("examples/*.py")):
        yield [python, str(example.relative_to(ROOT))], one
    yield [python, "-m", "pytest", "-q", "tests/core/test_goldens.py"], {}
    yield [python, "scripts/resume_smoke.py"], {}
    yield (
        [python, "-m", "pytest", "-x", "-q", "benchmarks/", "--benchmark-disable"],
        {"REPRO_TRIALS": "2", "REPRO_WORKERS": "2"},
    )
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        yield [
            python, "e2ebench/episode_pass.py", "--workload", workload["name"],
            "--seed", "2025", "--trials", "1", "--launched", repr(time.monotonic()),
            "--out", str(out_dir),
        ], {}


def trace_run_set(hook_dir: Path, out_dir: Path) -> None:
    """Run every command of the run set under the hook in ``hook_dir``."""
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for command, knobs in run_set(out_dir):
        settings = [f"{key}={value}" for key, value in knobs.items()]
        shown = " ".join(settings + ["python"] + command[1:])
        print(f"reach: {shown}", flush=True)
        done = subprocess.run(command, cwd=ROOT, env={**env, **knobs}, stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            print(f"reach: FAIL — exit {done.returncode} from {shown}")
            raise SystemExit(1)


def main() -> None:
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        hook_dir = Path(tmp) / "hook"
        hook_dir.mkdir()
        write_hook(hook_dir, PACKAGE)
        trace_run_set(hook_dir, Path(tmp) / "out")
        reached = read_dumps(hook_dir)
    defs = enumerate_defs(PACKAGE)
    declared, read = enumerate_attributes(PACKAGE)
    names, names_read = enumerate_names(PACKAGE)
    problems = check(defs, reached, ALLOWED)
    problems += check_attributes(declared, read, ALLOWED_ATTRIBUTES)
    problems += check_names(names, names_read, ALLOWED_NAMES)
    unreached = defs - reached
    unread = declared - read
    names_unread = names - names_read
    print(
        f"reach: {len(defs)} defs in src/repro, {len(defs & reached)} reached, "
        f"{len(unreached)} unreached ({len(unreached & set(ALLOWED))} of "
        f"{len(ALLOWED)} allowlisted); {time.monotonic() - start:.0f}s"
    )
    print(
        f"reach: {len(declared)} attributes declared in src/repro, {len(read)} read, "
        f"{len(unread)} unread ({len(unread & set(ALLOWED_ATTRIBUTES))} of "
        f"{len(ALLOWED_ATTRIBUTES)} allowlisted)"
    )
    print(
        f"reach: {len(names)} module-level names bound in src/repro, {len(names_read)} read, "
        f"{len(names_unread)} unread ({len(names_unread & set(ALLOWED_NAMES))} of "
        f"{len(ALLOWED_NAMES)} allowlisted)"
    )
    for problem in problems:
        print(f"  {problem}")
    if problems:
        print(f"reach: FAIL — {len(problems)} problem(s)")
        raise SystemExit(1)
    print("reach: OK")


if __name__ == "__main__":
    main()
