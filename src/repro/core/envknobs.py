"""Shared parsing for the ``REPRO_*`` environment knobs.

Every runtime knob in the repo reads the environment through these
helpers so the tolerances are uniform: values are whitespace-stripped,
empty/unset always means "use the default", and malformed values raise a
``ValueError`` naming the variable instead of being silently coerced.

Adopters: ``ExperimentSettings.from_env`` (``experiments/common.py``),
which entry points call once, reads ``REPRO_TRIALS`` / ``REPRO_WORKERS``
and, through :meth:`repro.core.settings.RunSettings.from_env`, the two
result-affecting knobs; ``core/fleet.py`` reads ``REPRO_LEDGER``.  The
knob table with defaults and the resolution order lives in
docs/performance.md and the serving-specific knobs in docs/serving.md.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

#: Spellings every boolean knob accepts as "on" and as "off".
TRUE_VALUES = frozenset({"1", "on", "true", "yes"})
FALSE_VALUES = frozenset({"0", "off", "false", "no"})


def raw_knob(name: str) -> str:
    """The knob's raw value, whitespace-stripped ('' when unset)."""
    return os.environ.get(name, "").strip()


def int_knob(name: str, default: int) -> int:
    """Read a positive integer knob, tolerating stray whitespace.

    Empty / unset values fall back to ``default``; non-integers and
    values below 1 raise ``ValueError`` naming the variable.

    >>> int_knob("DOCTEST_UNSET_KNOB", default=7)
    7
    """
    raw = raw_knob(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def bool_knob(name: str, default: bool) -> bool:
    """Read a boolean knob: unset means ``default``, :data:`TRUE_VALUES`
    mean on and :data:`FALSE_VALUES` off (case-insensitive); anything
    else raises ``ValueError`` naming the variable, so a typo cannot
    silently flip the knob."""
    raw = raw_knob(name).lower()
    if not raw:
        return default
    if raw in TRUE_VALUES:
        return True
    if raw in FALSE_VALUES:
        return False
    raise ValueError(f"{name} must be 1/on/true/yes or 0/off/false/no, got {raw!r}")


def choice_knob(name: str, default: str, choices: Sequence[str]) -> str:
    """Read an enumerated knob; unknown values raise naming the choices.

    The comparison is case-insensitive and the canonical (lower-case)
    spelling is returned, so callers can compare with ``==`` safely.
    """
    raw = raw_knob(name).lower()
    if not raw:
        return default
    if raw not in choices:
        raise ValueError(
            f"{name} must be one of {tuple(choices)}, got {raw!r}"
        )
    return raw
