"""The reach probe: its ``def`` enumeration, its ratchet, its hook and
its attribute check."""

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
reach = sys.modules["reach"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

FIXTURE = '''
import abc
import functools
from typing import Protocol


def decorate(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        return func(*args, **kwargs)

    return wrapper


class Shape(Protocol):
    def area(self) -> int: ...


class Base(abc.ABC):
    @abc.abstractmethod
    def area(self) -> int:
        """No body runs."""


class Square(Base):
    def __init__(self, side):
        self.side = side

    def area(self):
        return self.side**2

    @property
    def perimeter(self):
        return 4 * self.side


@decorate
def scaled(square, factor):
    def scale(value):
        return value * factor

    return scale(square.area())
'''

#: Calls every ``def`` of :data:`FIXTURE` that has a body to run.
DRIVE_FIXTURE = "import fixture; s = fixture.Square(2); s.perimeter; fixture.scaled(s, 3)"


def run_hooked(code: str, hook_dir: Path, *paths: Path) -> str:
    """Run ``code`` in a child interpreter under the hook; its stdout."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(str(path) for path in (hook_dir, *paths))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_enumeration_matches_the_qualnames_the_hook_records(tmp_path):
    source, hook_dir = tmp_path / "source", tmp_path / "hook"
    source.mkdir()
    hook_dir.mkdir()
    (source / "fixture.py").write_text(FIXTURE)
    reach.write_hook(hook_dir, source)
    run_hooked(DRIVE_FIXTURE, hook_dir, source)
    expected = {
        "fixture.py: decorate",
        "fixture.py: decorate.<locals>.wrapper",
        "fixture.py: Square.__init__",
        "fixture.py: Square.area",
        "fixture.py: Square.perimeter",
        "fixture.py: scaled",
        "fixture.py: scaled.<locals>.scale",
    }
    assert reach.read_dumps(hook_dir) == expected
    # The abstract method and the Protocol member have no body to run.
    assert reach.enumerate_defs(source) == expected


def test_ratchet_fails_both_ways_and_passes_when_the_list_matches():
    defs = {"a.py: used", "a.py: seam", "a.py: dead"}
    reached = {"a.py: used"}
    allowed = {"a.py: seam": "test seam", "a.py: dead": "interface"}
    assert reach.check(defs, reached, allowed) == []
    assert reach.check(defs, reached, {"a.py: seam": "test seam"}) == [
        "unreached and not allowlisted: a.py: dead"
    ]
    allowed = {**allowed, "a.py: used": "test oracle"}
    assert reach.check(defs, reached, allowed) == ["allowlisted but reached: a.py: used"]
    assert reach.check(set(), set(), {"a.py: gone": "test seam"}) == [
        "allowlisted but defined nowhere: a.py: gone"
    ]
    assert reach.check({"a.py: seam"}, set(), {"a.py: seam": "cli"}) == [
        "unknown reason 'cli': a.py: seam"
    ]


def test_allowlist_names_only_defs_with_a_reason():
    defs = reach.enumerate_defs(reach.PACKAGE)
    assert set(reach.ALLOWED) <= defs
    assert set(reach.ALLOWED.values()) <= set(reach.REASONS)
    assert len(reach.ALLOWED) <= 5


ATTRIBUTES = '''
from dataclasses import dataclass
from operator import attrgetter


@dataclass
class Point:
    x: int
    y: int
    label: str = ""
    LIMIT = 3


class Counter:
    def __init__(self):
        self.count = 0
        self.name: str = "c"

    def bump(self):
        self.count += 1
        return getattr(self, "name")


def show(point, counter):
    return point.x, attrgetter("y")(point), counter.bump()
'''


def scan(tmp_path: Path, source: str = ATTRIBUTES) -> tuple[set[str], set[str]]:
    """Declared and read attributes of a one-module tree holding ``source``."""
    (tmp_path / "fixture.py").write_text(source)
    return reach.enumerate_attributes(tmp_path)


def test_attributes_are_class_fields_and_self_stores(tmp_path):
    declared, _read = scan(tmp_path)
    assert declared == {
        "fixture.py: Point.x",
        "fixture.py: Point.y",
        "fixture.py: Point.label",
        "fixture.py: Point.LIMIT",
        "fixture.py: Counter.count",
        "fixture.py: Counter.name",
    }


def test_reads_through_attribute_getattr_and_attrgetter_pass(tmp_path):
    _declared, read = scan(tmp_path)
    assert read == {"fixture.py: Point.x", "fixture.py: Point.y", "fixture.py: Counter.name"}


def test_unread_field_fails(tmp_path):
    declared, read = scan(tmp_path)
    allowed = {"fixture.py: Point.LIMIT": "catalog", "fixture.py: Counter.count": "e2ebench"}
    assert reach.check_attributes(declared, read, allowed) == [
        "unread and not allowlisted: fixture.py: Point.label"
    ]


def test_augmented_assignment_alone_is_not_a_read(tmp_path):
    declared, read = scan(tmp_path)
    allowed = {"fixture.py: Point.LIMIT": "catalog", "fixture.py: Point.label": "catalog"}
    assert reach.check_attributes(declared, read, allowed) == [
        "unread and not allowlisted: fixture.py: Counter.count"
    ]


def test_attribute_allowlist_fails_on_read_missing_and_unknown_reason_entries(tmp_path):
    declared, read = scan(tmp_path)
    allowed = {
        "fixture.py: Point.LIMIT": "catalog",
        "fixture.py: Point.label": "catalog",
        "fixture.py: Counter.count": "test oracle",
    }
    assert reach.check_attributes(declared, read, allowed) == []

    def problems(name: str, reason: str) -> list[str]:
        return reach.check_attributes(declared, read, {**allowed, name: reason})

    assert problems("fixture.py: Point.x", "unpacked") == [
        "allowlisted but read: fixture.py: Point.x"
    ]
    assert problems("fixture.py: Point.z", "catalog") == [
        "allowlisted but defined nowhere: fixture.py: Point.z"
    ]
    assert problems("fixture.py: Point.label", "cli") == [
        "unknown reason 'cli': fixture.py: Point.label"
    ]


def test_every_attribute_of_the_tree_is_read_or_allowlisted():
    declared, read = reach.enumerate_attributes(reach.PACKAGE)
    assert reach.check_attributes(declared, read, reach.ALLOWED_ATTRIBUTES) == []


NAMES = '''
import fixture
from typing import Final

__all__ = ["LIMIT"]
LIMIT: Final = 3
REGISTRY = {}
WIDTH, HEIGHT = 2, 4
UNUSED = "set and never loaded"


def area():
    return WIDTH * fixture.HEIGHT, REGISTRY.get(LIMIT)
'''


def test_module_names_are_assignment_targets_and_dunders_are_exempt(tmp_path):
    (tmp_path / "fixture.py").write_text(NAMES)
    declared, read = reach.enumerate_names(tmp_path)
    assert declared == {
        f"fixture.py: {name}" for name in ("LIMIT", "REGISTRY", "WIDTH", "HEIGHT", "UNUSED")
    }
    # Read as ``NAME`` or as ``module.NAME``; an import, a def and
    # ``__all__`` are not assignments.
    assert declared - read == {"fixture.py: UNUSED"}


def test_unread_module_name_fails_unless_allowlisted(tmp_path):
    (tmp_path / "fixture.py").write_text(NAMES)
    declared, read = reach.enumerate_names(tmp_path)
    assert reach.check_names(declared, read, {}) == [
        "unread and not allowlisted: fixture.py: UNUSED"
    ]
    assert reach.check_names(declared, read, {"fixture.py: UNUSED": "catalog"}) == []
    assert reach.check_names(declared, read, {"fixture.py: LIMIT": "catalog"}) == [
        "unread and not allowlisted: fixture.py: UNUSED",
        "allowlisted but read: fixture.py: LIMIT",
    ]


def test_every_module_name_of_the_tree_is_read_or_allowlisted():
    declared, read = reach.enumerate_names(reach.PACKAGE)
    assert reach.check_names(declared, read, reach.ALLOWED_NAMES) == []


def test_pool_workers_dump_what_they_call(tmp_path):
    """A forked worker leaves through ``os._exit``: without the hook's
    after-fork finalizer it would dump nothing."""
    reach.write_hook(tmp_path, reach.PACKAGE)
    code = textwrap.dedent(
        """
        import os
        from repro.core.executor import ParallelExecutor
        from repro.core.synthetic import sleep_runner, synthetic_job

        jobs = [synthetic_job(seed=1), synthetic_job(seed=2)]
        with ParallelExecutor(max_workers=2, job_runner=sleep_runner) as executor:
            assert len(list(executor.run_stream(jobs))) == 2
        print(os.getpid())
        """
    )
    parent = int(run_hooked(code, tmp_path, reach.SRC))
    dumps = {
        int(path.name.split("-")[1]): reach.read_dump(path)
        for path in tmp_path.glob("reach-*.json")
    }
    assert "core/synthetic.py: sleep_runner" not in dumps.pop(parent)
    assert any("core/synthetic.py: sleep_runner" in dump for dump in dumps.values())
