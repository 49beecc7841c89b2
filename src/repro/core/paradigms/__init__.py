"""Paradigm loop registry."""

from repro.core.paradigms.base import ParadigmLoop
from repro.core.paradigms.centralized import CentralizedLoop
from repro.core.paradigms.decentralized import DecentralizedLoop, dialogue_rounds
from repro.core.paradigms.hierarchical import HierarchicalLoop, cluster_agents
from repro.core.paradigms.hybrid import HybridLoop
from repro.core.paradigms.modular import ModularLoop

PARADIGM_LOOPS: dict[str, type[ParadigmLoop]] = {
    "modular": ModularLoop,
    "centralized": CentralizedLoop,
    "decentralized": DecentralizedLoop,
    "hybrid": HybridLoop,
}

__all__ = [
    "CentralizedLoop",
    "DecentralizedLoop",
    "HierarchicalLoop",
    "HybridLoop",
    "ModularLoop",
    "PARADIGM_LOOPS",
    "ParadigmLoop",
    "cluster_agents",
    "dialogue_rounds",
]
