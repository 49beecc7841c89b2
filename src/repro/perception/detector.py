"""Detection simulation: ground-truth facts → noisy observed facts.

The sensing module hands the agent's ground-truth visible facts to
:func:`detect`, which simulates what the perception model actually reports:
some facts are missed (finite recall) and some are mislabeled (the value is
corrupted).  Mislabeled location facts are the seed of downstream
stale-memory faults — the agent will confidently navigate to the wrong
place, exactly the perception-induced failure mode modular systems exhibit.

Stream fidelity: the detector's random draws are part of the episode's
rng stream (the same generator feeds memory confusion and execution), so
no draw may be skipped or reordered.  The detector therefore never
caches *outcomes*; it only produces the stream cheaply:

- a perfect detector (``recall >= 1`` and ``mislabel_rate <= 0``, i.e. the
  ``symbolic`` profile) consumes its fixed per-fact draw budget in one
  vectorized ``rng.random(k)`` call — numpy fills scalar and array doubles
  from the same bit stream, so the generator state after the call is
  bit-identical to the per-fact loop — and returns the ground facts;
- the general path runs the per-fact loop with bound locals instead of
  repeated attribute lookups.

Either way the draw accounting is fixed: for ``n`` facts of which ``m``
pass recall and ``k`` fire their mislabel draw, a pass consumes ``n``
recall uniforms, ``m`` mislabel uniforms (only when a distractor
vocabulary exists) and ``k`` integer draws
(``tests/perception/test_detector.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import Fact
from repro.perception.models import PerceptionProfile


@dataclass(frozen=True)
class DetectionResult:
    """What the perception model reported for one frame."""

    facts: tuple[Fact, ...]
    latency: float


def detect(
    ground_facts: list[Fact],
    profile: PerceptionProfile,
    rng: np.random.Generator,
    distractor_values: list[str] | None = None,
) -> DetectionResult:
    """Simulate one perception pass over ``ground_facts``.

    ``distractor_values`` supplies plausible wrong values for mislabeling
    (e.g. other locations in the scene); without them mislabeling is
    skipped, since a detector cannot invent values outside its vocabulary.
    Per fact: a recall draw, then (when it passed) a mislabel draw.
    """
    recall = profile.recall
    mislabel_rate = profile.mislabel_rate
    if recall >= 1.0 and mislabel_rate <= 0.0:
        # Perfect detector: every fact passes recall (random() < 1 always)
        # and mislabeling never fires, so the draw pattern is fixed — one
        # recall draw per fact, plus one mislabel draw per fact when a
        # distractor vocabulary exists.  Consume the exact budget in one
        # vectorized call and report the frame unchanged.
        draws = 2 * len(ground_facts) if distractor_values else len(ground_facts)
        if draws:
            rng.random(draws)
        return DetectionResult(facts=tuple(ground_facts), latency=profile.latency_s)
    observed: list[Fact] = []
    append = observed.append
    random = rng.random
    for fact in ground_facts:
        if random() > recall:
            continue
        if distractor_values and random() < mislabel_rate:
            wrong_value = distractor_values[int(rng.integers(len(distractor_values)))]
            if wrong_value != fact.value:
                append(
                    Fact(
                        subject=fact.subject,
                        relation=fact.relation,
                        value=wrong_value,
                        step=fact.step,
                    )
                )
                continue
        append(fact)
    return DetectionResult(facts=tuple(observed), latency=profile.latency_s)

