"""Layer probes for the benchmark's traced runs.

The benchmark times layers from the outside.  :func:`install` wraps the
public functions and methods named in :data:`PROBES`, in the namespace
their callers look them up in (``astar`` in ``repro.envs.grid``, not in
``repro.planners.astar``), and every wrapped call records a span: id,
parent id, layer, probe name, start and end.  A layer's self time is its
spans' time minus the time their child spans cover, so the layers
partition a traced pass without counting any interval twice; whatever no
probe covers is the ``unprobed`` self time of the pass's root span.

Spans stay in memory and are written out when the pass ends.  Pool
workers (suite-sweep) inherit the wrappers at fork; each keeps per-probe
totals only, which the pass merges once the pool has exited.

:data:`PROBES` also records the benchmark's predictions: the end-to-end
metric each layer should move, the workloads it must fire on, and those
on which it must record zero calls.  ``test_probes.py`` checks them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pickle
import time
import weakref
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

FIG7 = "fig7-scale"
SOLO = "solo-modular"
SWEEP = "suite-sweep"
SERIAL = (FIG7, SOLO)
ALL = (FIG7, SOLO, SWEEP)

# Hooks run after a probed call returns: (tracer, args, kwargs, result,
# token), where token is what the probe's ``before`` hook returned.
Hook = Callable[["Tracer", tuple, dict, object, object], None]


@dataclass(frozen=True)
class Probe:
    layer: str
    #: Module whose namespace the caller looks the name up in.
    module: str
    #: ``"function"`` or ``"Class.method"`` (subclass overrides included).
    name: str
    #: End-to-end metric a change to this layer should move.
    moves: str
    #: Workloads on which the probe must fire at least once.
    fires_on: tuple[str, ...]
    #: Workloads on which the probe must record zero calls.
    zero_on: tuple[str, ...] = ()
    #: ``"span"`` records a span; ``"count"`` only counts calls.
    kind: str = "span"
    before: Callable[[tuple], object] | None = None
    after: Hook | None = None
    #: Generator probes: called on each item the generator yields.
    item: Callable[["Tracer", object], None] | None = None


# ---------------------------------------------------------------------- #
# Counter hooks
# ---------------------------------------------------------------------- #


def _candidates_reused(tracer, args, kwargs, result, token) -> None:
    env = args[0]
    agent = args[1] if len(args) > 1 else kwargs["agent"]
    per_env = tracer.last_candidates.get(env)
    if per_env is None:
        per_env = tracer.last_candidates[env] = {}
    # The previous tuple stays referenced here, so an ``is`` match cannot
    # be a recycled id.
    if per_env.get(agent) is result:
        tracer.counters["envs.candidates_reused"] += 1
    per_env[agent] = result


def _prompt_tokens(tracer, args, kwargs, result, token) -> None:
    tracer.counters["planning.prompt_tokens"] += result.tokens


def _message_useful(tracer, args, kwargs, result, token) -> None:
    useful = kwargs["useful"] if "useful" in kwargs else args[1]
    tracer.counters["communication.messages"] += 1
    tracer.counters["communication.useful"] += bool(useful)


def _execution_succeeded(tracer, args, kwargs, result, token) -> None:
    tracer.counters["execution.succeeded"] += bool(result.success)


def _replanned(tracer, args, kwargs, result, token) -> None:
    tracer.counters["reflection.replans"] += bool(result.should_replan)


def _bytes_read_before(args: tuple) -> int:
    return args[0].bytes_read


def _bytes_read(tracer, args, kwargs, result, token) -> None:
    tracer.counters["fleet.bytes_read"] += args[0].bytes_read - token


def _bytes_appended_before(args: tuple) -> int:
    return args[0].bytes_appended


def _bytes_appended(tracer, args, kwargs, result, token) -> None:
    tracer.counters["fleet.bytes_appended"] += args[0].bytes_appended - token


def _result_bytes(tracer, item) -> None:
    start = time.perf_counter()
    tracer.counters["executor.result_bytes"] += len(pickle.dumps(item[1]))
    tracer.exclude(time.perf_counter() - start)


# Episode-side probes fire on suite-sweep too, inside the pool workers.
PROBES: tuple[Probe, ...] = (
    Probe("envs", "repro.envs.base", "Environment.tick", "wall_s", ALL),
    Probe(
        "envs", "repro.envs.base", "Environment.candidates", "wall_s", ALL,
        after=_candidates_reused,
    ),
    Probe("perception", "repro.core.modules.sensing", "SensingModule.sense", "wall_s", ALL),
    Probe("memory", "repro.core.modules.memory", "MemoryModule.retrieve", "wall_s", ALL),
    Probe(
        "memory", "repro.core.modules.memory", "MemoryModule.commit_staged_messages",
        "wall_s", (FIG7, SWEEP), zero_on=(SOLO,),
    ),
    Probe(
        "planning", "repro.core.modules.planning", "PlanningModule.build_prompt",
        "wall_s", ALL, after=_prompt_tokens,
    ),
    Probe("planning", "repro.core.modules.planning", "PlanningModule.decide", "wall_s", ALL),
    Probe(
        "communication", "repro.core.modules.communication", "CommunicationModule.compose",
        "wall_s", (FIG7, SWEEP), zero_on=(SOLO,),
    ),
    Probe(
        "communication", "repro.core.metrics", "MetricsCollector.record_message",
        "wall_s", (FIG7, SWEEP), zero_on=(SOLO,), kind="count", after=_message_useful,
    ),
    Probe("bus", "repro.core.bus", "DeliveryBus.stage", "wall_s", (FIG7, SWEEP), zero_on=(SOLO,)),
    Probe("bus", "repro.core.bus", "DeliveryBus.flush", "wall_s", (FIG7, SWEEP), zero_on=(SOLO,)),
    Probe("scheduler", "repro.llm.scheduler", "InferenceScheduler.submit", "wall_s", ALL),
    Probe("scheduler", "repro.llm.scheduler", "InferenceScheduler.flush", "wall_s", ALL),
    Probe("llm", "repro.llm.simulated", "SimulatedLLM.execute", "wall_s", ALL),
    Probe(
        "execution", "repro.core.modules.execution", "ExecutionModule.execute", "wall_s",
        ALL, after=_execution_succeeded,
    ),
    Probe("execution", "repro.envs.grid", "astar", "wall_s", ALL),
    Probe("execution", "repro.envs.tabletop", "rrt_plan", "wall_s", (SWEEP,), zero_on=SERIAL),
    Probe(
        "execution", "repro.envs.household", "plan_grasp", "wall_s", (SOLO, SWEEP),
        zero_on=(FIG7,),
    ),
    Probe(
        "reflection", "repro.core.modules.reflection", "ReflectionModule.review", "wall_s",
        (SOLO, SWEEP), zero_on=(FIG7,), after=_replanned,
    ),
    Probe("clock", "repro.core.clock", "SimClock.advance", "wall_s", ALL, kind="count"),
    Probe(
        "executor", "repro.core.executor", "ParallelExecutor.run_stream", "wall_s",
        (SWEEP,), zero_on=SERIAL, item=_result_bytes,
    ),
    # Fleet writes happen only when a pass dispatches through a ledger
    # (suite-sweep); every workload's resume reads, fingerprints and
    # aggregates.
    Probe("fleet", "repro.core.fleet", "job_fingerprint", "resume_s", ALL),
    Probe("fleet", "repro.core.fleet", "encode_result", "wall_s", (SWEEP,), zero_on=SERIAL),
    Probe("fleet", "repro.core.fleet", "JobLedger.append_done", "wall_s", (SWEEP,), zero_on=SERIAL),
    Probe(
        "fleet", "repro.core.fleet", "JobLedger.flush", "wall_s", ALL,
        before=_bytes_appended_before, after=_bytes_appended,
    ),
    Probe(
        "fleet_read", "repro.core.fleet", "JobLedger.load", "resume_s", ALL,
        before=_bytes_read_before, after=_bytes_read,
    ),
    Probe("fleet_read", "repro.core.fleet", "decode_result", "resume_s", ALL),
    Probe("metrics", "repro.experiments.common", "aggregate", "resume_s", ALL),
    Probe("metrics", "repro.core.metrics", "MetricsCollector.finalize", "wall_s", ALL),
)

#: Span layers in report order; ``unprobed`` is the root spans' self time.
LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys(probe.layer for probe in PROBES if probe.kind == "span")
) + ("unprobed",)


# ---------------------------------------------------------------------- #
# Tracer
# ---------------------------------------------------------------------- #


class Tracer:
    """Spans and counters of one pass, kept in memory."""

    def __init__(self) -> None:
        #: (id, parent id, layer, probe name, start, end), in end order.
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self.last_candidates: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        #: True in a pool worker forked from the traced pass.
        self.in_worker = False
        self.enabled = True
        # Open frames: [id, parent id, layer, name, start, child time].
        self._stack: list[list] = []
        self._next_id = 0

    def enter(self, layer: str, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, parent, layer, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, count: bool = True) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, layer, name, start, child = frame
        duration = end - start
        if count:
            self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][5] += duration
        if not self.in_worker:
            self.spans.append((span_id, parent, layer, name, start, end))

    def exclude(self, seconds: float) -> None:
        """Keep tracer bookkeeping out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][5] += seconds

    def top_name(self) -> str | None:
        return self._stack[-1][3] if self._stack else None

    def reset_in_child(self) -> None:
        self.in_worker = True
        self.spans = []
        self.calls = Counter()
        self.self_s = Counter()
        self.counters = Counter()
        self.last_candidates = weakref.WeakKeyDictionary()
        self._stack = []

    def merge(self, summary: dict) -> None:
        """Add another process's :meth:`summary` (a pool worker's)."""
        self.calls.update(summary["calls"])
        self.self_s.update(summary["self_s"])
        self.counters.update(summary["counters"])

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-probe calls and self time, plus the counters."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }


# ---------------------------------------------------------------------- #
# Installing the wrappers
# ---------------------------------------------------------------------- #


def _span_wrapper(tracer: Tracer, probe: Probe, fn: Callable) -> Callable:
    layer, name, before, after = probe.layer, probe.name, probe.before, probe.after

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # A subclass override calling super() stays one span.
        if not tracer.enabled or tracer.top_name() == name:
            return fn(*args, **kwargs)
        token = before(args) if before is not None else None
        frame = tracer.enter(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(tracer, args, kwargs, result, token)
        return result

    return wrapper


def _generator_wrapper(tracer: Tracer, probe: Probe, fn: Callable) -> Callable:
    """Time each resumption of a generator as one segment of its span."""
    layer, name, item_hook = probe.layer, probe.name, probe.item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        first = True
        try:
            while True:
                if not tracer.enabled:
                    yield from inner
                    return
                frame = tracer.enter(layer, name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame, count=first)
                    first = False
                if item_hook is not None:
                    item_hook(tracer, item)
                yield item
        finally:
            inner.close()

    return wrapper


def _count_wrapper(tracer: Tracer, probe: Probe, fn: Callable) -> Callable:
    name, after = probe.name, probe.after

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if tracer.enabled:
            tracer.calls[name] += 1
            if after is not None:
                after(tracer, args, kwargs, result, None)
        return result

    return wrapper


def _targets(probe: Probe) -> list[tuple[object, str, Callable]]:
    """(owner, attribute, original) for every definition the probe covers."""
    module = importlib.import_module(probe.module)
    if "." not in probe.name:
        return [(module, probe.name, getattr(module, probe.name))]
    class_name, method = probe.name.split(".")
    pending = [getattr(module, class_name)]
    targets = []
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if method in cls.__dict__:
            targets.append((cls, method, cls.__dict__[method]))
    return targets


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every probe target; returns a function that restores them.

    Import every module whose subclasses a probe must see (the workload
    registry and the environment modules) before installing.
    """
    wrappers = {"span": _span_wrapper, "count": _count_wrapper}
    restore: list[tuple[object, str, Callable]] = []
    for probe in PROBES:
        targets = _targets(probe)
        if not targets:
            raise LookupError(f"probe {probe.name} found nothing to wrap")
        for owner, attribute, original in targets:
            if not inspect.isfunction(original):
                raise TypeError(f"probe {probe.name}: {attribute} is not a function")
            if inspect.isgeneratorfunction(original):
                wrapped = _generator_wrapper(tracer, probe, original)
            else:
                wrapped = wrappers[probe.kind](tracer, probe, original)
            setattr(owner, attribute, wrapped)
            restore.append((owner, attribute, original))

    def uninstall() -> None:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)

    return uninstall


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer calls, self time and ratios from a tracer summary."""
    calls, self_s, counters = summary["calls"], summary["self_s"], summary["counters"]
    layer_of = {probe.name: probe.layer for probe in PROBES if probe.kind == "span"}
    layer_of["pass"] = layer_of["resume"] = "unprobed"
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        names = [name for name, owner in layer_of.items() if owner == layer]
        if layer != "unprobed":
            metrics[f"{layer}.calls"] = sum(calls.get(name, 0) for name in names)
        metrics[f"{layer}.self_s"] = sum(self_s.get(name, 0.0) for name in names)
    metrics["clock.calls"] = calls.get("SimClock.advance", 0)
    metrics["envs.reuse_ratio"] = _ratio(
        counters.get("envs.candidates_reused", 0), calls.get("Environment.candidates", 0)
    )
    metrics["planning.prompt_tokens"] = counters.get("planning.prompt_tokens", 0)
    metrics["communication.useful_ratio"] = _ratio(
        counters.get("communication.useful", 0), counters.get("communication.messages", 0)
    )
    metrics["bus.messages_per_flush"] = _ratio(
        calls.get("DeliveryBus.stage", 0), calls.get("DeliveryBus.flush", 0)
    )
    metrics["scheduler.requests_per_flush"] = _ratio(
        calls.get("InferenceScheduler.submit", 0), calls.get("InferenceScheduler.flush", 0)
    )
    metrics["execution.success_ratio"] = _ratio(
        counters.get("execution.succeeded", 0), calls.get("ExecutionModule.execute", 0)
    )
    metrics["reflection.replan_ratio"] = _ratio(
        counters.get("reflection.replans", 0), calls.get("ReflectionModule.review", 0)
    )
    metrics["executor.result_bytes"] = counters.get("executor.result_bytes", 0)
    metrics["fleet.bytes_appended"] = counters.get("fleet.bytes_appended", 0)
    metrics["fleet.bytes_read"] = counters.get("fleet.bytes_read", 0)
    return metrics
