"""Perception model profiles (the sensing-module substrate).

The workload suite uses a zoo of perception front-ends — ViT, MineCLIP,
Mask R-CNN, DINO, ViLD, OWL-ViT, LiDAR point-cloud pipelines, and COMBO's
diffusion world-model.  For system-level characterization what matters is
(a) per-frame latency on the paper's A6000 and (b) detection quality, which
controls how complete the agent's observations are.  Each profile captures
exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import UnknownModelError


@dataclass(frozen=True)
class PerceptionProfile:
    """Latency/quality description of one perception model."""

    name: str
    latency_s: float  # per-frame inference latency
    recall: float  # probability a visible fact is detected
    mislabel_rate: float  # probability a detected fact has a wrong value

    def __post_init__(self) -> None:
        if not 0.0 < self.recall <= 1.0:
            raise ValueError(f"recall must be in (0, 1]: {self.recall}")
        if not 0.0 <= self.mislabel_rate < 1.0:
            raise ValueError(f"mislabel_rate must be in [0, 1): {self.mislabel_rate}")


_PROFILES: dict[str, PerceptionProfile] = {}


def register_perception(profile: PerceptionProfile) -> None:
    if profile.name in _PROFILES:
        raise ValueError(f"perception profile already registered: {profile.name}")
    _PROFILES[profile.name] = profile


def get_perception(name: str) -> PerceptionProfile:
    try:
        return _PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(_PROFILES))
        raise UnknownModelError(
            f"unknown perception profile {name!r}; known: {known}"
        ) from None


register_perception(
    PerceptionProfile(name="vit", latency_s=0.11, recall=0.94, mislabel_rate=0.02)
)

register_perception(
    PerceptionProfile(name="mineclip", latency_s=0.09, recall=0.92, mislabel_rate=0.03)
)

register_perception(
    PerceptionProfile(
        name="mask-rcnn",
        latency_s=0.18,
        recall=0.91,
        mislabel_rate=0.03,
    )
)

register_perception(
    PerceptionProfile(name="dino", latency_s=0.14, recall=0.95, mislabel_rate=0.02)
)

register_perception(
    PerceptionProfile(name="vild", latency_s=0.16, recall=0.93, mislabel_rate=0.03)
)

register_perception(
    PerceptionProfile(name="owl-vit", latency_s=0.15, recall=0.94, mislabel_rate=0.02)
)

register_perception(
    PerceptionProfile(
        name="pointcloud",
        latency_s=0.22,
        recall=0.90,
        mislabel_rate=0.02,
    )
)

#: DEPS consumes simulator-provided symbolic state: perfect and nearly free.
register_perception(
    PerceptionProfile(
        name="symbolic",
        latency_s=0.005,
        recall=1.0,
        mislabel_rate=0.0,
    )
)

#: COMBO reconstructs the *global* state from egocentric views with a
#: diffusion model: slow, and imagined far-field facts can be wrong.
register_perception(
    PerceptionProfile(
        name="diffusion-world-model",
        latency_s=0.85,
        recall=0.97,
        mislabel_rate=0.05,
    )
)
