"""Run settings: the one value that shapes what an episode computes.

Four settings change an episode's behaviour or its modeled latency:

- ``detector`` (``REPRO_DETECTOR``): the ``loop`` reference detector or
  the ``vector`` one, which has its own goldens;
- ``serve`` (``REPRO_SERVE``): ``percall`` / ``batched`` /
  ``continuous`` inference serving;
- ``serve_cap`` (``REPRO_SERVE_CAP``): the continuous engine's admission
  cap when a deployment leaves ``batch_size`` unset;
- ``overlap`` (``REPRO_OVERLAP``): perception–generation overlap
  (latency only).

A frozen :class:`RunSettings` holds all four, resolved in one fixed
order, each layer overriding the one before:

1. the environment, through :meth:`RunSettings.from_env` — the only
   parser of those four variables;
2. explicit values: ``ExperimentSettings(run=...)``, ``build_loop(...,
   settings=...)``, or a :func:`bind` block around any entry point;
3. the system config's pins, through :meth:`RunSettings.for_config`:
   ``optimizations.serve_mode``, else ``batching`` (selects
   ``batched``), and ``optimizations.detector_mode``.

Every :class:`~repro.core.executor.TrialJob` carries its resolved
value, and the fleet ledger fingerprints it.  A paradigm loop binds its
settings (:func:`bind`) while it builds the episode; the components that
depend on a setting read :func:`current` once, at construction, and keep
the value, so nothing reads the settings while the episode runs.  The
binding is a :mod:`contextvars` variable, so concurrent threads never see
each other's settings and a worker's result depends only on the job it
ran — not on when its pool was forked.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.envknobs import bool_knob, choice_knob, int_knob

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.core.config import SystemConfig

#: Noisy-detector implementations: ``loop`` is the seed-faithful
#: reference, ``vector`` batches the same draw counts in a reordered
#: stream (a documented byte-identity waiver; see docs/performance.md).
DETECTOR_MODES = ("loop", "vector")
#: Inference serving modes (see :mod:`repro.llm.scheduler`).
SERVE_MODES = ("percall", "batched", "continuous")
#: Continuous-engine admission cap when the deployment sets no ``batch_size``.
DEFAULT_SERVE_CAP = 8

#: The environment variables :meth:`RunSettings.from_env` reads.
ENV_KNOBS = (
    "REPRO_DETECTOR",
    "REPRO_SERVE",
    "REPRO_SERVE_CAP",
    "REPRO_OVERLAP",
)


@dataclass(frozen=True)
class RunSettings:
    """Every setting that can change an episode's results, resolved."""

    detector: str = "loop"
    serve: str = "percall"
    serve_cap: int = DEFAULT_SERVE_CAP
    overlap: bool = False

    def __post_init__(self) -> None:
        for name, choices in (
            ("detector", DETECTOR_MODES),
            ("serve", SERVE_MODES),
        ):
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(f"{name} must be one of {choices}, got {value!r}")
        if self.serve_cap < 1:
            raise ValueError(f"serve_cap must be >= 1, got {self.serve_cap}")

    @classmethod
    def from_env(cls) -> RunSettings:
        """Settings from the ``REPRO_*`` variables; unset ones keep the defaults.

        Values are parsed by :mod:`repro.core.envknobs` (whitespace and
        case tolerated, malformed values raise naming the variable).
        """
        base = cls()
        return cls(
            detector=choice_knob(
                "REPRO_DETECTOR", default=base.detector, choices=DETECTOR_MODES
            ),
            serve=choice_knob("REPRO_SERVE", default=base.serve, choices=SERVE_MODES),
            serve_cap=int_knob("REPRO_SERVE_CAP", default=base.serve_cap),
            overlap=bool_knob("REPRO_OVERLAP", default=base.overlap),
        )

    def for_config(self, config: SystemConfig) -> RunSettings:
        """These settings under ``config``'s pins, the last resolution layer.

        ``optimizations.serve_mode`` wins, else the Rec. 1 ``batching``
        flag selects ``batched``; ``optimizations.detector_mode`` pins the
        detector.  Idempotent, so a resolved value passes through as is.
        """
        pins = config.optimizations
        serve = pins.serve_mode or ("batched" if pins.batching else self.serve)
        detector = pins.detector_mode or self.detector
        if serve == self.serve and detector == self.detector:
            return self
        return replace(self, serve=serve, detector=detector)


_CURRENT: ContextVar[RunSettings | None] = ContextVar("run_settings", default=None)


def current() -> RunSettings:
    """The settings bound in this context, else the environment's."""
    settings = _CURRENT.get()
    return settings if settings is not None else RunSettings.from_env()


@contextmanager
def bind(settings: RunSettings) -> Iterator[RunSettings]:
    """Make ``settings`` what :func:`current` returns inside the block.

    Context-local: other threads (and other contexts) keep their own
    binding, and the previous one is restored on exit.
    """
    token = _CURRENT.set(settings)
    try:
        yield settings
    finally:
        _CURRENT.reset(token)
