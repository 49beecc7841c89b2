"""Shared parsing for the ``REPRO_*`` environment knobs.

Every runtime knob in the repo reads the environment through these
helpers so the tolerances are uniform: values are whitespace-stripped,
empty/unset always means "use the default", and malformed values raise a
``ValueError`` naming the variable instead of being silently coerced.

Adopters: ``ExperimentSettings.from_env`` (``experiments/common.py``),
which entry points call once, reads ``REPRO_TRIALS`` / ``REPRO_WORKERS``;
``core/fleet.py`` reads ``REPRO_LEDGER``.  No knob changes what an
episode computes: that is the system config's job.  The knob table with
defaults lives in docs/performance.md.
"""

from __future__ import annotations

import os


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
