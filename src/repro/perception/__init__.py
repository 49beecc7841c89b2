"""Simulated perception substrate: model profiles and detection noise."""

from repro.perception.detector import detect
from repro.perception.models import PerceptionProfile, get_perception

__all__ = [
    "PerceptionProfile",
    "detect",
    "get_perception",
]
