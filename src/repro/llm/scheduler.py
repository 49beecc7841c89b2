"""The inference scheduler: one serving layer for every LLM call.

Paper Recommendation 1 frames LLM serving as a system concern: requests
from many agents should meet a scheduler, not a method call.  This module
is that scheduler.  Each paradigm loop owns one
:class:`InferenceScheduler`; every module-to-LLM call site submits a
typed :class:`~repro.llm.requests.InferenceRequest` and the scheduler
hands it to the issuing agent's :class:`~repro.llm.simulated.SimulatedLLM`,
charges the virtual clock, and records the token sample, all in exactly
one place.

Three serving modes (the system config's ``optimizations.serve_mode``,
which the paradigm loop passes as ``mode``; a scheduler built without
one serves per call):

- ``percall`` (default) — dispatch immediately, in submission order,
  charging each request's own modeled latency at the exact clock position
  the seed charged it.  Byte-identical to the seed pipeline (pinned by
  the committed goldens).
- ``batched`` — request *content* still resolves at submit time, in
  submission order (the rng stream, decisions, token counts, faults, and
  therefore every task outcome are untouched); only the latency charge is
  deferred.  At each phase boundary the loop flushes, and pending
  requests that share a serving group — same effective model profile,
  deployment options, module, phase, and purpose — are dispatched as one
  occupancy-aware batch priced by
  :meth:`~repro.llm.deployment.DeploymentOptions.batched_call_latency`:
  overhead paid once, prompts prefilled together, decode at the longest
  output with a per-extra-request penalty.  Format retries stay honest:
  a request that needed ``n`` extra rounds pays them as unbatched
  straggler re-issues on top of the shared batch latency.  A batch of
  one charges exactly the per-call latency, so a phase that exposes no
  concurrency serves like ``percall`` (episode latency totals can still
  differ in the last ulp: deferred charges accumulate on the clock in
  flush order, which changes the float summation order).

- ``continuous`` — a continuous-batching engine per (profile,
  deployment) pair, modeled after real serving stacks (vLLM-style
  iteration-level scheduling).  Content still resolves at submit; the
  submit *clock position* is recorded as the request's arrival time and
  the engine replays the arrival-ordered queue at the step boundary:
  each batch starts at ``max(engine free, first arrival)``, admits
  waiting requests up to the occupancy cap
  (:data:`~repro.llm.deployment.DEFAULT_OCCUPANCY_CAP`), and accepts
  *in-flight joins* — requests that arrive while the batch is running
  join it if a slot is free, extending the batch end by the recomputed
  shared latency (floored at the joiner's own prefill+decode service).
  Requests that find the engine full wait, and that wait is charged
  through the clock (:meth:`~repro.core.clock.SimClock.settle` ends each
  request's charge at its absolute completion), so the cap costs
  queueing delay.
  Per-request latency is attributed via
  ``MetricsCollector.record_served_request`` and surfaces as
  ``mean_queue_delay`` / ``mean_request_latency`` /
  ``serve_inflight_joins`` on the episode and aggregate results.
  Because one engine serves the whole step, cross-phase requests (plans,
  action selections, messages) share the queue — the pipelined-stream
  simplification of the async-pipeline paper (arXiv 2509.09560): a
  request's issue time is its submit clock position even when its
  content depended on an earlier pending result.

The mode is part of the system, ``OptimizationConfig.serve_mode``: Rec. 1
sets it with ``config.with_optimizations(serve_mode="batched")`` (or
``"continuous"``), and the serving grids set it per cell to compare
modes in one run.  API-profile groups batch too — that models the
provider's server-side continuous batching, which is exactly how
concurrent requests from one team would land on a real endpoint.

What batching may and may not change is the layer's contract: success,
steps, token counts, message metrics, and fault counts are invariant
across modes (asserted by the golden serving tests and
``benchmarks/bench_serving.py``); only modeled latency — and with it the
latency figures — moves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.core.config import SERVE_MODES
from repro.llm.deployment import DEFAULT_OCCUPANCY_CAP
from repro.llm.requests import InferenceRequest, InferenceResult

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.core.clock import SimClock
    from repro.core.metrics import MetricsCollector
    from repro.llm.simulated import SimulatedLLM


class _Pending(NamedTuple):
    """One submitted-but-uncharged request (deferred serving modes)."""

    llm: SimulatedLLM
    request: InferenceRequest
    result: InferenceResult
    #: Clock position at submit — the request's arrival time in the
    #: continuous engine's queue (unused by batched dispatch).
    arrival: float


class InferenceScheduler:
    """Collects a phase's inference requests and dispatches them.

    One instance per episode, shared by every agent's module stack, so
    phase-concurrent requests from different agents meet in one place —
    the property batching needs.  The paradigm loops flush at their
    phase boundaries (dialogue rounds, planning, the end of each step),
    mirroring the :class:`~repro.core.bus.DeliveryBus` flush discipline.
    """

    def __init__(
        self,
        clock: "SimClock",
        metrics: "MetricsCollector",
        mode: str = "percall",
    ) -> None:
        if mode not in SERVE_MODES:
            raise ValueError(f"mode must be one of {SERVE_MODES}, got {mode!r}")
        self.mode = mode
        self._clock = clock
        self._metrics = metrics
        self._pending: list[_Pending] = []
        #: Continuous engine: the per-(profile, deployment) busy-until
        #: horizon that persists across flushes so a new step's arrivals
        #: queue behind work still in flight.
        self._engine_free: dict[tuple, float] = {}
        #: Clock position where the last dispatching flush started
        #: charging — the anchor perception–generation overlap
        #: (``optimizations.overlap``) backdates the next step's sensing to.
        self.overlap_anchor = 0.0

    @property
    def pending(self) -> int:
        """Requests submitted and not yet charged (deferred modes only)."""
        return len(self._pending)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def submit(self, llm: SimulatedLLM, request: InferenceRequest) -> InferenceResult:
        """Serve one request through the active mode.

        Content always resolves now (``llm`` executes requests in
        submission order, keeping the rng stream seed-identical); per-call
        mode also charges the clock now, the deferred modes (batched,
        continuous) postpone the charge to the next dispatching :meth:`flush` —
        except for requests marked ``sequential``, whose issuance
        depended on an earlier result and which therefore charge
        per-call in every mode.  Continuous mode additionally records
        the current clock position as the request's arrival time in the
        engine queue.  Metric recording is mode-independent:
        the token sample and (for decisions) the fault count land
        immediately, in the seed's order.
        """
        result = llm.execute(request)
        if self.mode != "percall" and not request.sequential:
            self._pending.append(_Pending(llm, request, result, arrival=self._clock.now))
        else:
            self._charge(request, result.latency)
        self._metrics.record_llm_call(
            step=request.step,
            agent=request.agent,
            purpose=request.purpose,
            prompt_tokens=result.prompt_tokens,
            output_tokens=result.output_tokens,
            model=llm.profile.name,
        )
        if result.decision is not None:
            self._metrics.record_fault(result.decision.fault)
        return result

    # ------------------------------------------------------------------ #
    # Batched dispatch
    # ------------------------------------------------------------------ #

    def flush(self, final: bool = False) -> None:
        """Dispatch pending requests through the active deferred mode.

        Batched mode dispatches at every flush (the loops call it at
        their phase boundaries, which is what defines "phase-concurrent");
        continuous mode dispatches only at the step-boundary flush
        (``final=True``) — intermediate flushes are no-ops so the whole
        step's requests meet in one arrival-ordered engine queue, the
        property that lets plans, messages, and action selections from
        different phases share batches.  No-op in per-call mode, which
        never has pending requests.

        In batched mode, pending requests are grouped by serving group —
        (effective profile, deployment options, module, phase, purpose),
        the profile compared by value so same-named profiles with
        different latency parameters never share a batch — in
        first-submission order; each group becomes one batch.
        Multi-request batches charge the shared batch latency once plus
        each request's retry rounds; singleton batches charge exactly
        like per-call mode.
        """
        if not self._pending:
            return
        if self.mode == "continuous" and not final:
            return
        self.overlap_anchor = self._clock.now
        pending, self._pending = self._pending, []
        if self.mode == "continuous":
            self._flush_continuous(pending)
            return
        groups: dict[tuple, list[_Pending]] = {}
        for item in pending:
            llm, request = item.llm, item.request
            key = (
                llm.profile,
                llm.deployment,
                request.module,
                request.phase,
                request.purpose,
            )
            groups.setdefault(key, []).append(item)
        for items in groups.values():
            self._dispatch_batch(items)

    def _dispatch_batch(self, items: list[_Pending]) -> None:
        if len(items) == 1:
            self._charge(items[0].request, items[0].result.latency)
            self._metrics.record_batch(1)
            return
        llm = items[0].llm
        first = items[0].request
        batch_latency = llm.deployment.batched_call_latency(
            llm.profile,
            [item.result.prompt_tokens for item in items],
            [item.result.output_tokens for item in items],
        )
        self._clock.advance(batch_latency, first.module, phase=first.phase)
        for item in items:
            result = item.result
            if result.rounds > 1:
                # Stragglers: each retry re-issues the request alone.
                per_call = item.llm.profile.call_latency(
                    result.prompt_tokens, result.output_tokens
                )
                self._charge(item.request, (result.rounds - 1) * per_call)
        self._metrics.record_batch(len(items))

    # ------------------------------------------------------------------ #
    # Continuous-batching engine
    # ------------------------------------------------------------------ #

    def _flush_continuous(self, pending: list[_Pending]) -> None:
        """Replay the step's arrivals through per-engine queues.

        One engine per (effective profile, deployment options) pair —
        deliberately coarser than the batched serving group, so requests
        from different phases and purposes can share a batch the way
        they would share a real endpoint.  Each engine drains its
        arrival-ordered queue: a batch starts at ``max(engine free,
        first arrival)``, admits every request already waiting (up to
        the occupancy cap), then accepts in-flight joins that arrive
        before it finishes.  Requests the cap excludes wait for the next
        batch, and the wait is charged as part of their latency.
        """
        engines: dict[tuple, list[_Pending]] = {}
        for item in pending:
            key = (item.llm.profile, item.llm.deployment)
            engines.setdefault(key, []).append(item)
        for key, items in engines.items():
            self._engine_free[key] = self._run_engine(
                items, self._engine_free.get(key, 0.0)
            )

    def _run_engine(self, items: list[_Pending], free_at: float) -> float:
        """Drain one engine's queue; returns the new busy-until horizon."""
        profile = items[0].llm.profile
        deployment = items[0].llm.deployment
        # Stable sort: ties in arrival keep submission order.
        queue = sorted(items, key=lambda item: item.arrival)
        index = 0
        while index < len(queue):
            start = max(free_at, queue[index].arrival)
            batch: list[tuple[_Pending, float, bool]] = []  # (item, admit, joined)
            while (
                index < len(queue)
                and len(batch) < DEFAULT_OCCUPANCY_CAP
                and queue[index].arrival <= start
            ):
                batch.append((queue[index], start, False))
                index += 1
            end = start + deployment.batched_call_latency(
                profile,
                [item.result.prompt_tokens for item, _, _ in batch],
                [item.result.output_tokens for item, _, _ in batch],
            )
            # In-flight joins: a request arriving while the batch runs
            # takes a free slot at its arrival instant.  The batch end is
            # the recomputed shared latency, floored at the joiner's own
            # prefill+decode service (it cannot finish faster than its
            # tokens stream, and the engine's per-call overhead was
            # already paid when the batch launched).  A join never moves
            # the end earlier, so an earlier joiner keeps its own floor.
            while (
                index < len(queue)
                and len(batch) < DEFAULT_OCCUPANCY_CAP
                and queue[index].arrival < end
            ):
                joiner = queue[index]
                batch.append((joiner, joiner.arrival, True))
                index += 1
                shared = start + deployment.batched_call_latency(
                    profile,
                    [item.result.prompt_tokens for item, _, _ in batch],
                    [item.result.output_tokens for item, _, _ in batch],
                )
                floor = joiner.arrival + (
                    joiner.result.prompt_tokens / profile.prefill_tps
                    + joiner.result.output_tokens / profile.decode_tps
                )
                end = max(end, shared, floor)
            for item, admit, joined in batch:
                result = item.result
                completion = end
                if result.rounds > 1:
                    # Stragglers re-issue alone, delaying only their own
                    # completion — the engine moves on at ``end``.
                    completion += (result.rounds - 1) * profile.call_latency(
                        result.prompt_tokens, result.output_tokens
                    )
                request = item.request
                self._clock.settle(
                    completion,
                    completion - item.arrival,
                    request.module,
                    phase=request.phase,
                )
                self._metrics.record_served_request(
                    wait_seconds=admit - item.arrival,
                    total_seconds=completion - item.arrival,
                    joined=joined,
                )
            self._metrics.record_batch(len(batch))
            free_at = end
        return free_at

    def _charge(self, request: InferenceRequest, seconds: float) -> None:
        self._clock.advance(seconds, request.module, phase=request.phase)
