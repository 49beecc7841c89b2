"""Detection simulation: ground-truth facts → noisy observed facts.

The sensing module hands the agent's ground-truth visible facts to
:func:`detect`, which simulates what the perception model actually reports:
some facts are missed (finite recall) and some are mislabeled (the value is
corrupted).  Mislabeled location facts are the seed of downstream
stale-memory faults — the agent will confidently navigate to the wrong
place, exactly the perception-induced failure mode modular systems exhibit.

Hot-path staging (the ``hotpath`` run setting): the detector's random draws
are part of the episode's rng stream (the same generator feeds memory
confusion and execution), so no draw may be skipped or reordered.  The
optimized path therefore never caches *outcomes*; it only produces the
identical stream more cheaply:

- a perfect detector (``recall >= 1`` and ``mislabel_rate <= 0``, i.e. the
  ``symbolic`` profile) consumes its fixed per-fact draw budget in one
  vectorized ``rng.random(k)`` call — numpy fills scalar and array doubles
  from the same bit stream, so the generator state after the call is
  bit-identical to the per-fact loop — and returns the ground facts;
- the general path runs the same per-fact loop with bound locals instead
  of repeated attribute lookups.

The reference path keeps the seed implementation verbatim, so benchmark
comparisons stay honest.

Detector modes (the ``detector`` run setting): the module additionally hosts a
**vector** detector that batches the per-fact draws into three array
calls — ``rng.random(n)`` for recall, ``rng.random(m)`` for the ``m``
facts that passed recall (only when a distractor vocabulary exists), and
``rng.integers(n_distractors, size=k)`` for the ``k`` facts whose
mislabel draw fired.  It follows the loop's exact draw *accounting
rule* — one recall uniform per fact, one mislabel uniform per passed
fact (only when a distractor vocabulary exists), one integer draw per
fired mislabel — so no draw category is skipped or invented; but the
draws are reordered (all recall draws first instead of interleaved per
fact), so under noisy profiles different facts pass recall and its
aggregates differ from the loop detector's.
That is a documented byte-identity waiver: ``loop`` stays the default
and the reference for every golden suite; ``vector`` ships with its own
re-baselined goldens (see docs/performance.md).  Mode selection: an
explicit ``mode=`` argument wins, else the run settings' ``detector``
(:func:`repro.core.settings.current`), which the sensing module captures
once per episode; the ``loop`` mode dispatches through the hotpath seam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.settings import current
from repro.core.types import Fact
from repro.perception.models import PerceptionProfile


@dataclass(frozen=True)
class DetectionResult:
    """What the perception model reported for one frame."""

    facts: tuple[Fact, ...]
    missed: int
    mislabeled: int
    latency: float


def detect(
    ground_facts: list[Fact],
    profile: PerceptionProfile,
    rng: np.random.Generator,
    distractor_values: list[str] | None = None,
    mode: str | None = None,
) -> DetectionResult:
    """Simulate one perception pass over ``ground_facts``.

    ``distractor_values`` supplies plausible wrong values for mislabeling
    (e.g. other locations in the scene); without them mislabeling is
    skipped, since a detector cannot invent values outside its vocabulary.

    ``mode`` pins the detector implementation for this call (``loop`` /
    ``vector``); ``None`` defers to the run settings' ``detector``.  The
    ``vector`` detector wins regardless of the ``hotpath`` setting — it
    is an explicit opt-in with its own goldens.
    """
    settings = current()
    if (mode or settings.detector) == "vector":
        return _detect_vector(ground_facts, profile, rng, distractor_values)
    if settings.hotpath:
        return _detect_fast(ground_facts, profile, rng, distractor_values)
    return _detect_reference(ground_facts, profile, rng, distractor_values)


def _detect_reference(
    ground_facts: list[Fact],
    profile: PerceptionProfile,
    rng: np.random.Generator,
    distractor_values: list[str] | None,
) -> DetectionResult:
    """The seed implementation, kept verbatim as the equivalence anchor."""
    observed: list[Fact] = []
    missed = 0
    mislabeled = 0
    for fact in ground_facts:
        if rng.random() > profile.recall:
            missed += 1
            continue
        if distractor_values and rng.random() < profile.mislabel_rate:
            wrong_value = distractor_values[int(rng.integers(len(distractor_values)))]
            if wrong_value != fact.value:
                observed.append(
                    Fact(
                        subject=fact.subject,
                        relation=fact.relation,
                        value=wrong_value,
                        step=fact.step,
                    )
                )
                mislabeled += 1
                continue
        observed.append(fact)
    return DetectionResult(
        facts=tuple(observed),
        missed=missed,
        mislabeled=mislabeled,
        latency=profile.latency_s,
    )


def _detect_fast(
    ground_facts: list[Fact],
    profile: PerceptionProfile,
    rng: np.random.Generator,
    distractor_values: list[str] | None,
) -> DetectionResult:
    """Stream-identical detection with less per-fact Python overhead."""
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
        return DetectionResult(
            facts=tuple(ground_facts),
            missed=0,
            mislabeled=0,
            latency=profile.latency_s,
        )
    observed: list[Fact] = []
    append = observed.append
    random = rng.random
    missed = 0
    mislabeled = 0
    if distractor_values:
        n_distractors = len(distractor_values)
        for fact in ground_facts:
            if random() > recall:
                missed += 1
                continue
            if random() < mislabel_rate:
                wrong_value = distractor_values[int(rng.integers(n_distractors))]
                if wrong_value != fact.value:
                    append(
                        Fact(
                            subject=fact.subject,
                            relation=fact.relation,
                            value=wrong_value,
                            step=fact.step,
                        )
                    )
                    mislabeled += 1
                    continue
            append(fact)
    else:
        for fact in ground_facts:
            if random() > recall:
                missed += 1
                continue
            append(fact)
    return DetectionResult(
        facts=tuple(observed),
        missed=missed,
        mislabeled=mislabeled,
        latency=profile.latency_s,
    )


def _detect_vector(
    ground_facts: list[Fact],
    profile: PerceptionProfile,
    rng: np.random.Generator,
    distractor_values: list[str] | None,
) -> DetectionResult:
    """Batched detection following the loop's exact draw-accounting rule.

    Draw-count contract (asserted by the parity test in
    tests/perception/test_detector.py): for ``n`` facts of which ``m``
    pass recall and ``k`` of those fire their mislabel draw, the loop
    consumes ``n`` recall uniforms + ``m`` mislabel uniforms (only when a
    distractor vocabulary exists) + ``k`` integer draws.  This path draws
    ``rng.random(n)``, ``rng.random(m)``, ``rng.integers(_, size=k)`` —
    the identical outcome-conditional accounting, batched.  Because the
    loop interleaves the kinds per fact, the reordered stream assigns
    different uniforms to the recall checks, so under noisy profiles the
    realized ``m``/``k`` (and hence aggregates) differ from ``loop`` mode
    — the documented waiver.  Whenever no draw can change an outcome
    (perfect detectors, i.e. the symbolic profile) both modes report
    identical facts *and* consume identical totals.
    """
    n = len(ground_facts)
    if n == 0:
        return DetectionResult(
            facts=(), missed=0, mislabeled=0, latency=profile.latency_s
        )
    # The rng calls below are the entire draw contract; the comparisons
    # and assembly run on plain python lists (``tolist``) because frames
    # are small (a handful to a few dozen facts) and elementwise access
    # into numpy arrays costs more than the batched draw saves.
    recall = profile.recall
    recall_draws = rng.random(n).tolist()
    if not distractor_values:
        observed = [
            fact
            for fact, draw in zip(ground_facts, recall_draws)
            if draw <= recall
        ]
        missed = n - len(observed)
        facts = tuple(ground_facts) if missed == 0 else tuple(observed)
        return DetectionResult(
            facts=facts, missed=missed, mislabeled=0, latency=profile.latency_s
        )
    passed = [draw <= recall for draw in recall_draws]
    n_passed = sum(passed)
    missed = n - n_passed
    fired = None
    picks = None
    if n_passed:
        mislabel_rate = profile.mislabel_rate
        fired = [draw < mislabel_rate for draw in rng.random(n_passed).tolist()]
        n_fired = sum(fired)
        if n_fired:
            picks = rng.integers(len(distractor_values), size=n_fired).tolist()
    observed = []
    append = observed.append
    mislabeled = 0
    passed_cursor = 0
    pick_cursor = 0
    for index, fact in enumerate(ground_facts):
        if not passed[index]:
            continue
        fact_fired = fired[passed_cursor]
        passed_cursor += 1
        if fact_fired:
            wrong_value = distractor_values[picks[pick_cursor]]
            pick_cursor += 1
            if wrong_value != fact.value:
                append(
                    Fact(
                        subject=fact.subject,
                        relation=fact.relation,
                        value=wrong_value,
                        step=fact.step,
                    )
                )
                mislabeled += 1
                continue
        append(fact)
    return DetectionResult(
        facts=tuple(observed),
        missed=missed,
        mislabeled=mislabeled,
        latency=profile.latency_s,
    )
