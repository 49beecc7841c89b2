"""Detection simulation: ground-truth facts → noisy observed facts.

The sensing module hands the agent's ground-truth visible facts to
:func:`detect`, which simulates what the perception model actually reports:
some facts are missed (finite recall) and some are mislabeled (the value is
corrupted).  Mislabeled location facts are the seed of downstream
stale-memory faults — the agent will confidently navigate to the wrong
place, exactly the perception-induced failure mode modular systems exhibit.

Stream fidelity: the detector's random draws are part of the episode's
rng stream (the same generator feeds memory confusion and execution), so
no draw may be skipped or reordered.  For ``n`` facts of which ``m`` pass
recall and ``k`` fire their mislabel draw, a pass consumes ``n`` recall
uniforms, ``m`` mislabel uniforms (only when a distractor vocabulary
exists) and ``k`` integer draws, in per-fact order
(``tests/perception/test_detector.py``).  A perfect detector
(``recall >= 1`` and ``mislabel_rate <= 0``, i.e. the ``symbolic``
profile) runs the same loop: it draws the same uniforms and keeps every
fact.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.types import Fact
from repro.perception.models import PerceptionProfile


def detect(
    ground_facts: Sequence[Fact],
    profile: PerceptionProfile,
    rng: np.random.Generator,
    distractor_values: list[str] | None = None,
) -> tuple[Fact, ...]:
    """Simulate one perception pass over ``ground_facts``; the reported facts.

    ``distractor_values`` supplies plausible wrong values for mislabeling
    (e.g. other locations in the scene); without them mislabeling is
    skipped, since a detector cannot invent values outside its vocabulary.
    Per fact: a recall draw, then (when it passed) a mislabel draw.
    """
    recall = profile.recall
    mislabel_rate = profile.mislabel_rate
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
    return tuple(observed)
