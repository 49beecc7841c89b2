"""Simulated perception substrate: model profiles and detection noise."""

from repro.perception.detector import DetectionResult, detect
from repro.perception.models import PerceptionProfile, get_perception

__all__ = [
    "DetectionResult",
    "PerceptionProfile",
    "detect",
    "get_perception",
]
