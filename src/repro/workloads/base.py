"""Workload-suite support types.

A *workload* is a named, fully-specified :class:`SystemConfig` plus the
catalog metadata the paper tabulates (application, datasets, paradigm
labels).  :class:`TaxonomyEntry` additionally covers the systems of
Table I that are categorized but not benchmarked.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SystemConfig


@dataclass(frozen=True)
class TaxonomyEntry:
    """One row of the paper's Table I (paradigm categorization)."""

    name: str
    #: "single-modular" | "single-end-to-end" | "multi-centralized" |
    #: "multi-decentralized"
    category: str
    sensing: bool
    planning: bool
    communication: bool
    memory: bool
    reflection: bool
    execution: bool
    embodied_type: str  # "Device Control (T)", "Simulation (V)", ...

    def module_flags(self) -> dict[str, bool]:
        return {
            "sensing": self.sensing,
            "planning": self.planning,
            "communication": self.communication,
            "memory": self.memory,
            "reflection": self.reflection,
            "execution": self.execution,
        }


@dataclass(frozen=True)
class Workload:
    """One benchmarked system of the paper's Table II."""

    config: SystemConfig
    application: str
    datasets: str

    @property
    def name(self) -> str:
        return self.config.name

    def taxonomy_entry(self) -> TaxonomyEntry:
        flags = self.config.module_flags()
        category = {
            "modular": "single-modular",
            "centralized": "multi-centralized",
            "decentralized": "multi-decentralized",
            "hybrid": "multi-decentralized",
        }[self.config.paradigm]
        return TaxonomyEntry(
            name=self.config.name,
            category=category,
            embodied_type=self.config.embodied_type,
            **flags,
        )
