"""Run settings: the one value that shapes what an episode computes.

Two settings change an episode's modeled latency:

- ``serve`` (``REPRO_SERVE``): ``percall`` / ``batched`` /
  ``continuous`` inference serving;
- ``overlap`` (``REPRO_OVERLAP``): perception–generation overlap
  (latency only).

A frozen :class:`RunSettings` holds both, resolved in one fixed order,
each layer overriding the one before:

1. the caller's value: explicit, or resolved once by an entry point's
   ``ExperimentSettings.from_env()``, the only caller of
   :meth:`RunSettings.from_env` (the only parser of those two
   variables); a caller that passes none gets ``RunSettings()``;
2. the system config's pin, through :meth:`RunSettings.for_config`:
   ``optimizations.serve_mode``.

Every :class:`~repro.core.executor.TrialJob` carries its resolved
value, and the checkpoint ledger fingerprints it.  A paradigm loop reads its
settings once, while it builds the episode, and passes ``serve`` to its
inference scheduler as an argument; nothing reads the settings while
the episode runs, so a worker's result depends only on the job it ran —
not on when its pool was forked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.envknobs import bool_knob, choice_knob

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.core.config import SystemConfig

#: Inference serving modes (see :mod:`repro.llm.scheduler`).
SERVE_MODES = ("percall", "batched", "continuous")

#: The environment variables :meth:`RunSettings.from_env` reads.
ENV_KNOBS = ("REPRO_SERVE", "REPRO_OVERLAP")


@dataclass(frozen=True)
class RunSettings:
    """Every setting that can change an episode's results, resolved."""

    serve: str = "percall"
    overlap: bool = False

    def __post_init__(self) -> None:
        if self.serve not in SERVE_MODES:
            raise ValueError(f"serve must be one of {SERVE_MODES}, got {self.serve!r}")

    @classmethod
    def from_env(cls) -> RunSettings:
        """Settings from the ``REPRO_*`` variables; unset ones keep the defaults.

        Values are parsed by :mod:`repro.core.envknobs` (whitespace and
        case tolerated, malformed values raise naming the variable).
        """
        base = cls()
        return cls(
            serve=choice_knob("REPRO_SERVE", default=base.serve, choices=SERVE_MODES),
            overlap=bool_knob("REPRO_OVERLAP", default=base.overlap),
        )

    def for_config(self, config: SystemConfig) -> RunSettings:
        """These settings under ``config``'s pin, the last resolution layer.

        ``optimizations.serve_mode`` (which the Rec. 1 ``with_batching``
        transform sets to ``batched``) wins over ``serve``.  Idempotent,
        so a resolved value passes through as is.
        """
        serve = config.optimizations.serve_mode or self.serve
        return self if serve == self.serve else replace(self, serve=serve)
