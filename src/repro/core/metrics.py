"""Episode metrics: collection during the loop, aggregation across trials.

The collector is the single sink for everything the paper measures:
per-module latency totals (Fig. 2), step counts and success (Fig. 3),
token series per agent/purpose (Fig. 6), message-usefulness counters
(Sec. V-D), and fault/reflection counts.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from statistics import mean

from repro.core.clock import LLM_MODULES, MODULE_ORDER, ModuleName, SimClock
from repro.core.errors import FaultKind
from repro.core.types import StepRecord


def module_shares(module_seconds: dict[ModuleName, float]) -> dict[ModuleName, float]:
    """Each module's share of the total attributed latency, in
    :data:`MODULE_ORDER` (all zero when nothing was charged)."""
    total = sum(module_seconds.values())
    if total <= 0.0:
        return {module: 0.0 for module in MODULE_ORDER}
    return {module: module_seconds.get(module, 0.0) / total for module in MODULE_ORDER}


@dataclass(frozen=True)
class TokenSample:
    """Prompt/output tokens of one LLM call (kept by the collector)."""

    step: int
    agent: str
    purpose: str  # "plan" | "message" | "action_selection" | "reflection"
    prompt_tokens: int
    output_tokens: int


@dataclass(frozen=True)
class EpisodeResult:
    """Everything measured in one episode.

    Frozen: a dispatch hands one result to every slot that repeats its
    job, so no slot may change it.  Its size does not grow with the
    episode's calls: the per-step records and per-call token samples stay
    on the :class:`MetricsCollector` that ran the loop.  Fig. 6's
    per-step series, :attr:`prompt_series`, is filled only for a job
    flagged ``prompt_series`` (``core/executor.py: run_trial_job``) and
    is empty otherwise.  This is what a worker pickles and a ledger line
    holds.
    """

    workload: str
    success: bool
    steps: int
    horizon: int
    sim_seconds: float
    goal_progress: float
    module_seconds: dict[ModuleName, float]
    llm_calls: int
    prompt_tokens: int
    output_tokens: int
    messages_sent: int
    messages_useful: int
    faults: dict[FaultKind, int]
    reflections_triggered: int
    replans: int
    #: Inference-serving statistics (``serve_mode="batched"``, Rec. 1
    #: batching): dispatch groups flushed and requests they carried.
    #: Both zero under per-call serving.
    serve_batches: int = 0
    serve_batched_requests: int = 0
    #: Per-request latency attribution of the continuous-batching engine
    #: (``serve_mode="continuous"``): total queueing delay (arrival →
    #: batch admission), total request latency (arrival → completion,
    #: straggler retry rounds included), and how many requests joined a
    #: batch already in flight.  All zero under per-call and batched
    #: serving, which have no arrival-time queue.
    serve_queue_seconds: float = 0.0
    serve_request_seconds: float = 0.0
    serve_inflight_joins: int = 0
    #: Token volume per serving deployment: effective profile name →
    #: ``(prompt_tokens, output_tokens)``, recorded by the inference
    #: scheduler and sorted by name (deterministic equality/pickle).
    #: What the per-figure cost footer prices (``llm/costs.py``).
    deployment_tokens: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: Fig. 6's prompt growth, :meth:`MetricsCollector.prompt_series`;
    #: ``{}`` unless the job was flagged ``prompt_series``.
    prompt_series: dict[str, tuple[int, ...]] = field(default_factory=dict)

    @property
    def sim_minutes(self) -> float:
        return self.sim_seconds / 60.0

    @property
    def seconds_per_step(self) -> float:
        return self.sim_seconds / max(1, self.steps)

    @property
    def llm_fraction(self) -> float:
        """Fraction of latency spent in LLM-heavy modules (paper: 70.2 %).

        Summed in canonical ``MODULE_ORDER`` (not by iterating the
        ``LLM_MODULES`` frozenset): enum members hash by id, so frozenset
        iteration order — and with it the float summation order — would
        vary across processes, making aggregates differ in the last ulp
        between otherwise identical runs.
        """
        total = sum(self.module_seconds.values())
        if total <= 0.0:
            return 0.0
        llm = sum(
            self.module_seconds.get(module, 0.0)
            for module in MODULE_ORDER
            if module in LLM_MODULES
        )
        return llm / total

    @property
    def message_usefulness(self) -> float:
        """Fraction of sent messages that carried novel facts (~20 % in CoELA)."""
        if self.messages_sent == 0:
            return 0.0
        return self.messages_useful / self.messages_sent

    def module_breakdown(self) -> dict[ModuleName, float]:
        """Per-module share of total attributed latency, normalized."""
        return module_shares(self.module_seconds)


@dataclass
class MetricsCollector:
    """Mutable sink used by modules during an episode.

    ``records`` (one per agent-step) and ``token_samples`` (one per LLM
    call) are for in-process readers of a loop's ``metrics``: the result
    :meth:`finalize` returns does not carry them, nor Fig. 6's series
    over them (:meth:`prompt_series`), which ``run_trial_job`` adds to a
    flagged job's result.
    """

    workload: str
    horizon: int
    records: list[StepRecord] = field(default_factory=list)
    token_samples: list[TokenSample] = field(default_factory=list)
    faults: Counter = field(default_factory=Counter)
    llm_calls: int = 0
    prompt_tokens: int = 0
    output_tokens: int = 0
    messages_sent: int = 0
    messages_useful: int = 0
    reflections_triggered: int = 0
    replans: int = 0
    serve_batches: int = 0
    serve_batched_requests: int = 0
    serve_queue_seconds: float = 0.0
    serve_request_seconds: float = 0.0
    serve_inflight_joins: int = 0
    deployment_tokens: dict[str, list[int]] = field(default_factory=dict)

    def record_llm_call(
        self,
        step: int,
        agent: str,
        purpose: str,
        prompt_tokens: int,
        output_tokens: int,
        model: str = "",
    ) -> None:
        self.llm_calls += 1
        self.prompt_tokens += prompt_tokens
        self.output_tokens += output_tokens
        if model:
            bucket = self.deployment_tokens.setdefault(model, [0, 0])
            bucket[0] += prompt_tokens
            bucket[1] += output_tokens
        self.token_samples.append(
            TokenSample(
                step=step,
                agent=agent,
                purpose=purpose,
                prompt_tokens=prompt_tokens,
                output_tokens=output_tokens,
            )
        )

    def record_fault(self, fault: FaultKind | None) -> None:
        if fault is not None:
            self.faults[fault] += 1

    def record_message(self, useful: bool) -> None:
        self.messages_sent += 1
        if useful:
            self.messages_useful += 1

    def record_batch(self, occupancy: int) -> None:
        """One batched-serving dispatch group of ``occupancy`` requests."""
        self.serve_batches += 1
        self.serve_batched_requests += occupancy

    def record_served_request(
        self, wait_seconds: float, total_seconds: float, joined: bool = False
    ) -> None:
        """Per-request latency attribution from the continuous engine.

        ``wait_seconds`` is the queueing delay (arrival → admission into
        a batch; 0 for in-flight joins, which admit at their arrival),
        ``total_seconds`` the full arrival-to-completion latency, and
        ``joined`` whether the request joined a batch already in flight.
        """
        self.serve_queue_seconds += wait_seconds
        self.serve_request_seconds += total_seconds
        if joined:
            self.serve_inflight_joins += 1

    def record_step(self, record: StepRecord) -> None:
        self.records.append(record)

    def finalize(
        self,
        clock: SimClock,
        success: bool,
        steps: int,
        goal_progress: float,
    ) -> EpisodeResult:
        return EpisodeResult(
            workload=self.workload,
            success=success,
            steps=steps,
            horizon=self.horizon,
            sim_seconds=clock.now,
            goal_progress=goal_progress,
            module_seconds=clock.elapsed_by_module(),
            llm_calls=self.llm_calls,
            prompt_tokens=self.prompt_tokens,
            output_tokens=self.output_tokens,
            messages_sent=self.messages_sent,
            messages_useful=self.messages_useful,
            faults=dict(self.faults),
            reflections_triggered=self.reflections_triggered,
            replans=self.replans,
            serve_batches=self.serve_batches,
            serve_batched_requests=self.serve_batched_requests,
            serve_queue_seconds=self.serve_queue_seconds,
            serve_request_seconds=self.serve_request_seconds,
            serve_inflight_joins=self.serve_inflight_joins,
            deployment_tokens={
                model: (prompt, output)
                for model, (prompt, output) in sorted(self.deployment_tokens.items())
            },
        )

    def prompt_series(self) -> dict[str, tuple[int, ...]]:
        """Fig. 6's prompt growth over the recorded samples.

        ``"agent:purpose"`` → flat, step-sorted ``(step, tokens, step,
        tokens, …)``, where ``tokens`` is the largest prompt of that
        agent's calls of that purpose in the step (plan and message calls
        only; keys sorted by agent, then purpose).
        """
        best: dict[tuple[str, str, int], int] = {}
        for sample in self.token_samples:
            if sample.purpose in ("plan", "message"):
                key = (sample.agent, sample.purpose, sample.step)
                best[key] = max(best.get(key, 0), sample.prompt_tokens)
        series: dict[str, list[int]] = {}
        for (agent, purpose, step), tokens in sorted(best.items()):
            series.setdefault(f"{agent}:{purpose}", []).extend((step, tokens))
        return {name: tuple(flat) for name, flat in series.items()}


@dataclass(frozen=True)
class AggregateResult:
    """Mean metrics over a set of trials of one experiment cell."""

    workload: str
    n_trials: int
    success_rate: float
    mean_steps: float
    mean_sim_minutes: float
    mean_seconds_per_step: float
    module_seconds: dict[ModuleName, float]
    mean_llm_calls: float
    mean_prompt_tokens: float
    llm_fraction: float
    message_usefulness: float
    mean_messages_sent: float
    mean_goal_progress: float
    #: Mean requests per batched-serving dispatch group across the
    #: cell's trials (0.0 when every trial served per-call).
    mean_batch_occupancy: float = 0.0
    #: Continuous-serving queueing metrics across the cell's trials:
    #: mean seconds a request waited for batch admission, mean
    #: arrival-to-completion request latency, and mean in-flight batch
    #: joins per episode.  All 0.0 outside ``serve_mode="continuous"``.
    mean_queue_delay: float = 0.0
    mean_request_latency: float = 0.0
    mean_inflight_joins: float = 0.0
    #: Token volume per serving deployment, summed over the cell's
    #: trials (effective profile name → (prompt, output); sorted keys),
    #: and its modeled dollar cost via the ``llm/costs.py`` rate table.
    #: The per-figure cost report in the suite output sums these.
    deployment_tokens: dict[str, tuple[int, int]] = field(default_factory=dict)
    cost_usd: float = 0.0

    def cost_breakdown(self) -> dict[str, float]:
        """Dollar cost per serving deployment across the cell's trials."""
        from repro.llm.costs import cost_breakdown

        return cost_breakdown(self.deployment_tokens)

    def module_breakdown(self) -> dict[ModuleName, float]:
        """Per-module share of total attributed latency, normalized."""
        return module_shares(self.module_seconds)


def aggregate(results: list[EpisodeResult]) -> AggregateResult:
    """Average per-episode metrics into one experiment-cell summary."""
    if not results:
        raise ValueError("cannot aggregate zero episode results")
    module_totals: dict[ModuleName, list[float]] = defaultdict(list)
    for result in results:
        for module in MODULE_ORDER:
            module_totals[module].append(result.module_seconds.get(module, 0.0))
    total_sent = sum(result.messages_sent for result in results)
    total_useful = sum(result.messages_useful for result in results)
    total_batches = sum(result.serve_batches for result in results)
    total_batched = sum(result.serve_batched_requests for result in results)
    total_queue = sum(result.serve_queue_seconds for result in results)
    total_request = sum(result.serve_request_seconds for result in results)
    deployment_totals: dict[str, list[int]] = {}
    for result in results:
        for model, (prompt, output) in result.deployment_tokens.items():
            bucket = deployment_totals.setdefault(model, [0, 0])
            bucket[0] += prompt
            bucket[1] += output
    deployment_tokens = {
        model: (prompt, output)
        for model, (prompt, output) in sorted(deployment_totals.items())
    }
    from repro.llm.costs import total_cost

    return AggregateResult(
        workload=results[0].workload,
        n_trials=len(results),
        success_rate=mean(1.0 if result.success else 0.0 for result in results),
        mean_steps=mean(result.steps for result in results),
        mean_sim_minutes=mean(result.sim_minutes for result in results),
        mean_seconds_per_step=mean(result.seconds_per_step for result in results),
        module_seconds={
            module: mean(values) for module, values in module_totals.items()
        },
        mean_llm_calls=mean(result.llm_calls for result in results),
        mean_prompt_tokens=mean(result.prompt_tokens for result in results),
        llm_fraction=mean(result.llm_fraction for result in results),
        message_usefulness=(total_useful / total_sent) if total_sent else 0.0,
        mean_messages_sent=mean(result.messages_sent for result in results),
        mean_goal_progress=mean(result.goal_progress for result in results),
        mean_batch_occupancy=(total_batched / total_batches) if total_batches else 0.0,
        mean_queue_delay=(total_queue / total_batched) if total_batched else 0.0,
        mean_request_latency=(total_request / total_batched) if total_batched else 0.0,
        mean_inflight_joins=mean(result.serve_inflight_joins for result in results),
        deployment_tokens=deployment_tokens,
        cost_usd=total_cost(deployment_tokens),
    )
