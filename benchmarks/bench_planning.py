"""Planning kernels: scoreboard scoring and prompt-section assembly.

``bench_hotpath`` times whole episodes on a paradigm-mixed grid; this
benchmark isolates the two planning-side kernels hot-path phase 4
vectorized, driven by a synthetic workload that reproduces their
episode-shaped access pattern:

- **behaviour-kernel scoring** — a stream of :class:`DecisionRequest`\\ s
  over candidate tuples that recur for several consecutive steps (the
  environment candidate cache returns the identical tuple while beliefs
  are unchanged).  The optimized path scores through the memoized
  numpy scoreboard; the reference path re-walks the candidate pools per
  decision, exactly like the seed.
- **prompt assembly** — per-step observation/memory/dialogue/candidates
  builds over a persistent fact bank, a growing dialogue log, and the
  same recurring candidate tuples, repeated for the dialogue rounds of
  each step.  The optimized path reuses interned sections, instance
  token memos, and the incremental dialogue window; the reference path
  re-renders and re-tokenizes every section.

Both kernels consume the same rng stream and must produce identical
outcomes on both paths (decisions byte-for-byte, prompt token counts
equal); the corpus is rebuilt fresh per pass so instance memos and
identity-keyed caches start cold for every measurement.

Contracts, as in the sibling benchmarks:

- **equivalence** — decision streams and prompt token totals must match
  across paths;
- **speed** — the combined kernel time must hold a >= 1.5x speedup and
  stay within 20 % of the committed baseline ratio in
  ``benchmarks/baselines/BENCH_planning.json``.  (Scoring shares
  irreducible per-decision costs — retry sampling and the outcome draws
  — across both paths, so its isolated ratio sits well below the
  episode-level hot-path ratio; assembly is where the memoized sections
  pull far ahead.)

Emits ``BENCH_planning.json`` for CI artifacts.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from conftest import emit

from repro.core.errors import FaultKind
from repro.core.settings import RunSettings, bind
from repro.core.types import Candidate, Fact, Message, Observation, Subgoal
from repro.llm.behavior import BehaviorKernel, DecisionRequest
from repro.llm.prompt import PromptBuilder
from repro.llm.tokenizer import count_tokens

ROUNDS = 3

SPEEDUP_FLOOR = 1.5
BASELINE_TOLERANCE = 0.8

BASELINE_PATH = Path(__file__).parent / "baselines" / "BENCH_planning.json"
OUTPUT_PATH = Path("BENCH_planning.json")

#: Candidate pools recur for this many consecutive decisions before the
#: "beliefs change" and the next pool takes over — the recurrence the
#: identity-keyed scoreboard and section caches amortize across.
STEPS_PER_POOL = 8
N_POOLS = 12
POOL_SIZE = 24

SCORE_ITERS = 6000

PROMPT_STEPS = 400
ROUNDS_PER_STEP = 3  # dialogue rounds per step rebuild the same prompt shape


def _pools() -> list[tuple[Candidate, ...]]:
    """Rich candidate tuples: utility ties, infeasibles, fault carriers."""
    pools = []
    for p in range(N_POOLS):
        candidates = [
            Candidate(
                subgoal=Subgoal(f"fetch_{p}_{i}", target=f"obj_{i}"),
                utility=round(0.05 * (i % 13), 2),
            )
            for i in range(POOL_SIZE - 5)
        ]
        candidates += [
            Candidate(subgoal=Subgoal(f"tied_a_{p}", target="box_1"), utility=0.6),
            Candidate(subgoal=Subgoal(f"tied_b_{p}", target="box_1"), utility=0.6),
            Candidate(subgoal=Subgoal(f"blocked_{p}"), utility=0.0, feasible=False),
            Candidate(
                subgoal=Subgoal(f"ghost_{p}"),
                utility=0.0,
                feasible=False,
                fault=FaultKind.HALLUCINATION,
            ),
            Candidate(
                subgoal=Subgoal(f"stale_{p}"),
                utility=0.4,
                fault=FaultKind.STALE_MEMORY,
            ),
        ]
        pools.append(tuple(candidates))
    return pools


def _requests(pools) -> list[list[DecisionRequest]]:
    """Four request variants per pool, spanning the scoreboard key space
    (blacklist x stale-facts) and both joint-planning regimes."""
    variants = []
    for p, pool in enumerate(pools):
        blacklist = frozenset({Subgoal(f"tied_a_{p}", target="box_1")})
        variants.append(
            [
                DecisionRequest(candidates=pool, difficulty="medium"),
                DecisionRequest(candidates=pool, difficulty="hard", n_joint=3),
                DecisionRequest(candidates=pool, blacklist=blacklist),
                DecisionRequest(
                    candidates=pool, has_stale_facts=True, difficulty="hard"
                ),
            ]
        )
    return variants


def _score_pass(fast: bool, seed: int) -> tuple[list, float]:
    """Time ``SCORE_ITERS`` decisions on one path; return (signature, s).

    The kernel (and with it the scoreboard LRU) is constructed inside the
    pass, so each measurement pays its own warmup — no cross-pass reuse.
    """
    pools = _pools()
    requests = _requests(pools)
    with bind(RunSettings(hotpath=fast)):
        kernel = BehaviorKernel(reasoning=0.82, format_compliance=0.97)
        rng = np.random.default_rng(seed)
        signature = []
        append = signature.append
        started = time.perf_counter()
        for i in range(SCORE_ITERS):
            pool_index = (i // STEPS_PER_POOL) % N_POOLS
            request = requests[pool_index][i % 4]
            outcome = kernel.decide(request, 1800 + (i % 7) * 40, rng)
            append(
                (
                    outcome.candidate.subgoal.name,
                    outcome.fault,
                    outcome.retries,
                    outcome.p_correct,
                )
            )
        elapsed = time.perf_counter() - started
    return signature, elapsed


def _prompt_corpus():
    """Fresh per-pass corpus: fact bank, message stream, candidate pools.

    Rebuilding per pass keeps instance memos (``_described`` /
    ``_ptokens``) and the identity-keyed section caches cold, so fast
    and reference measurements both start from scratch.
    """
    facts = [
        Fact(f"obj_{i}", "located_in", f"room_{i % 6}", step=i % 40)
        for i in range(160)
    ]
    messages = [
        Message(
            sender=f"agent_{i % 4}",
            recipients=("agent_0",),
            step=i // 2,
            facts=(facts[i % 160],),
            intent=Subgoal(f"goto_{i % 9}", target=f"room_{i % 6}"),
            text=f"heading to room_{i % 6}",
        )
        for i in range(2 * PROMPT_STEPS)
    ]
    observations = [
        Observation(
            agent="agent_0",
            step=step,
            position=f"room_{step % 6}",
            facts=tuple(facts[(step * 3) % 120 : (step * 3) % 120 + 10]),
        )
        for step in range(PROMPT_STEPS)
    ]
    memory_windows = [
        tuple(facts[: 30 + step % 50]) for step in range(PROMPT_STEPS)
    ]
    return facts, messages, observations, memory_windows, _pools()


def _prompt_pass(fast: bool) -> tuple[list, float]:
    """Time the per-step builder chain on one path; return (tokens, s)."""
    _, messages, observations, memory_windows, pools = _prompt_corpus()
    count_tokens.cache_clear()
    with bind(RunSettings(hotpath=fast)):
        log: list[Message] = []
        tokens = []
        append = tokens.append
        started = time.perf_counter()
        for step in range(PROMPT_STEPS):
            log.append(messages[2 * step])
            log.append(messages[2 * step + 1])
            observation = observations[step]
            memory = memory_windows[step]
            pool = pools[(step // STEPS_PER_POOL) % N_POOLS]
            for _round in range(ROUNDS_PER_STEP):
                prompt = (
                    PromptBuilder(
                        system_text="You are agent_0 in a cooperative team.",
                        task_text="Transport every target object to the goal room.",
                    )
                    .observation(observation)
                    .memory(memory)
                    .dialogue(log, window_key="agent_0")
                    .candidates(pool)
                    .build()
                )
                append(prompt.tokens)
        elapsed = time.perf_counter() - started
    return tokens, elapsed


def test_bench_planning_speedup(benchmark):
    # Equivalence first: identical decision streams and token totals.
    reference_sig, _ = _score_pass(fast=False, seed=0)
    optimized_sig, _ = _score_pass(fast=True, seed=0)
    assert optimized_sig == reference_sig

    reference_tokens, _ = _prompt_pass(fast=False)
    optimized_tokens, _ = _prompt_pass(fast=True)
    assert optimized_tokens == reference_tokens

    score_ref, score_opt = [], []
    prompt_ref, prompt_opt = [], []
    for bench_round in range(ROUNDS):
        sig, elapsed = _score_pass(fast=False, seed=bench_round)
        check, _ = _score_pass(fast=True, seed=bench_round)
        assert check == sig
        score_ref.append(elapsed)
        _, elapsed = _score_pass(fast=True, seed=bench_round)
        score_opt.append(elapsed)

        _, elapsed = _prompt_pass(fast=False)
        prompt_ref.append(elapsed)
        _, elapsed = _prompt_pass(fast=True)
        prompt_opt.append(elapsed)

    benchmark.pedantic(_prompt_pass, args=(True,), rounds=1, iterations=1)

    score_speedup = min(score_ref) / max(1e-9, min(score_opt))
    prompt_speedup = min(prompt_ref) / max(1e-9, min(prompt_opt))
    ref_best = min(score_ref) + min(prompt_ref)
    opt_best = min(score_opt) + min(prompt_opt)
    speedup = ref_best / max(1e-9, opt_best)

    baseline_speedup = None
    if BASELINE_PATH.exists():
        baseline_speedup = json.loads(BASELINE_PATH.read_text())["speedup"]

    payload = {
        "score_iterations": SCORE_ITERS,
        "prompt_builds": PROMPT_STEPS * ROUNDS_PER_STEP,
        "rounds": ROUNDS,
        "reference_seconds": ref_best,
        "optimized_seconds": opt_best,
        "score_speedup": round(score_speedup, 3),
        "prompt_speedup": round(prompt_speedup, 3),
        "speedup": round(speedup, 3),
        "baseline_speedup": baseline_speedup,
        "byte_identical": True,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    body = (
        f"scoring:  {SCORE_ITERS} decisions over {N_POOLS} recurring pools, "
        f"min of {ROUNDS} rounds\n"
        f"          reference {min(score_ref):6.3f}s  optimized "
        f"{min(score_opt):6.3f}s  ({score_speedup:5.2f}x, decisions identical)\n"
        f"assembly: {PROMPT_STEPS * ROUNDS_PER_STEP} prompt builds "
        f"({PROMPT_STEPS} steps x {ROUNDS_PER_STEP} rounds)\n"
        f"          reference {min(prompt_ref):6.3f}s  optimized "
        f"{min(prompt_opt):6.3f}s  ({prompt_speedup:5.2f}x, tokens identical)\n"
        f"combined: {speedup:5.2f}x   baseline {baseline_speedup}x committed, "
        f"gate at {BASELINE_TOLERANCE:.0%} of it"
    )
    emit("Planning kernels (scoreboard scoring + prompt assembly)", body)

    assert speedup >= SPEEDUP_FLOOR, (
        f"planning-kernel speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor"
    )
    if baseline_speedup is not None:
        floor = BASELINE_TOLERANCE * baseline_speedup
        assert speedup >= floor, (
            f"planning-kernel speedup {speedup:.2f}x regressed >20% against the "
            f"committed baseline {baseline_speedup}x (gate: {floor:.2f}x)"
        )
