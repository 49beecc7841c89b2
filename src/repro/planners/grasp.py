"""Grasp planning simulation (DaDu-E's AnyGrasp execution stage).

AnyGrasp scores grasp pose candidates over a point cloud and the robot
retries until a grasp succeeds or the candidate budget is exhausted.  We
model that as Bernoulli attempts with per-evaluation compute cost and
per-attempt actuation time, reproducing the execution-latency share the
paper reports for DaDu-E (38.1 % of step time).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.planners.costmodel import ComputeCost

#: Seconds of arm motion per physical grasp attempt.
GRASP_ATTEMPT_ACTUATION_S = 3.2

#: Pose candidates scored per attempt.
CANDIDATES_PER_ATTEMPT = 8


@dataclass(frozen=True)
class GraspResult:
    success: bool
    cost: ComputeCost
    actuation_seconds: float


def plan_grasp(
    rng: np.random.Generator,
    success_probability: float = 0.82,
    max_attempts: int = 3,
) -> GraspResult:
    """Attempt to grasp an object, retrying on failure."""
    if not 0.0 < success_probability <= 1.0:
        raise ValueError(
            f"success_probability must be in (0, 1]: {success_probability}"
        )
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1: {max_attempts}")
    attempts = 0
    success = False
    while attempts < max_attempts:
        attempts += 1
        if rng.random() < success_probability:
            success = True
            break
    return GraspResult(
        success=success,
        cost=ComputeCost(grasp_evaluations=attempts * CANDIDATES_PER_ATTEMPT),
        actuation_seconds=attempts * GRASP_ATTEMPT_ACTUATION_S,
    )
