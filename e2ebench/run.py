"""End-to-end, layer-attributed host-time benchmark of the simulator.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload fig7-scale --seed 2025 --seconds 25 --trace 0

Each run starts ``episode_pass.py`` once per pass, in a fresh interpreter
(cold caches, as a figure run pays them), for about ``--seconds`` and at
least :data:`MIN_PASSES` passes.  Every pass of a run uses the
same inputs, so they must all produce the same aggregate digest; at the
default seed the digest must also equal the recorded one.

``--trace 0`` reports the end-to-end metrics (medians over the passes).
Each time is scaled by the host speed the pass sampled while it took it
(:mod:`speed`), so it reads as host seconds at the reference speed; raw
seconds and speeds of every pass are kept in the full record.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(settings, every pass) goes to ``.e2ebench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".e2ebench"
sys.path.insert(0, str(BENCH_DIR))

import probes  # noqa: E402
import workloads  # noqa: E402

#: Whole-run limit; a run must end within 180 s.
RUN_LIMIT_S = 165.0
#: A median of three passes outvotes one pass that a slow spell of the
#: host hit harder than the speed probes saw; trace runs need one
#: untraced and one traced pass.
MIN_PASSES = 3

#: (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("sim_steps_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("resume_s", "s", "lower"),
)

_RATIO_UNITS = {
    "envs.reuse_ratio": ("ratio", "higher"),
    "planning.prompt_tokens": ("tokens", "lower"),
    "communication.useful_ratio": ("ratio", "higher"),
    "bus.messages_per_flush": ("msgs/flush", "higher"),
    "scheduler.requests_per_flush": ("reqs/flush", "higher"),
    "execution.success_ratio": ("ratio", "higher"),
    "reflection.replan_ratio": ("ratio", "lower"),
    "executor.result_bytes": ("bytes", "lower"),
    "fleet.bytes_appended": ("bytes", "lower"),
    "fleet.bytes_read": ("bytes", "lower"),
}

#: (name, unit, better) of every per-layer metric.
PER_LAYER = (
    tuple(
        (f"{layer}.{kind}", unit, "lower")
        for layer in probes.LAYERS
        for kind, unit in (("calls", "count"), ("self_s", "s"))
        if (layer, kind) != ("unprobed", "calls")
    )
    + (("clock.calls", "count", "lower"),)
    + tuple((name, unit, better) for name, (unit, better) in _RATIO_UNITS.items())
    + (
        ("executor.worker_rss_mb", "MB", "lower"),
        ("setup.interpreter_s", "s", "lower"),
        ("setup.import_s", "s", "lower"),
        ("setup.dispatch_s", "s", "lower"),
        ("setup.fork_s", "s", "lower"),
        ("host.speed", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
    )
)


def _clean_env() -> dict[str, str]:
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _git_rev() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _run_pass(args: argparse.Namespace, traced: bool, timeout: float) -> dict:
    launched = time.monotonic()
    command = [
        sys.executable, str(BENCH_DIR / "episode_pass.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--launched", repr(launched), "--out", str(OUT_DIR),
    ]
    if traced:
        command.append("--trace")
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_clean_env(),
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"pass timed out after {timeout:.0f} s", "traced": traced}
    finally:
        # The pass reaps its own pool; this catches anything it left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"pass exited {proc.returncode} without a result", "traced": traced}
    record["pass_s"] = time.monotonic() - launched
    return record


def _check(passes: list[dict], workload: str, seed: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every pass of the run."""
    expected = workloads.EXPECTED_DIGESTS.get(workload) if seed == workloads.DEFAULT_SEED else None
    reference = next((p["digest"] for p in passes if "digest" in p), None)
    attempted = failed = 0
    problems: list[str] = []
    for index, record in enumerate(passes):
        episodes = record.get("expected_episodes", 0)
        if "error" in record:
            # A pass that died before reporting its size attempted at least one.
            lost = max(1, episodes - record.get("episodes", 0))
            attempted += max(episodes, lost)
            failed += lost
            problems.append(f"pass {index}: {record['error'].strip().splitlines()[-1]}")
            continue
        attempted += episodes
        bad = []
        if record["episodes"] != episodes:
            bad.append(f"{record['episodes']} of {episodes} episodes returned")
        if record["digest"] != reference:
            bad.append(f"digest {record['digest'][:12]} != first pass {reference[:12]}")
        if expected is not None and record["digest"] != expected:
            bad.append(f"digest {record['digest'][:12]} != recorded {expected[:12]}")
        if not record["resume_matches"]:
            bad.append("resumed aggregates differ from the pass's own")
        if record["resume_dispatched"]:
            bad.append(f"resume executed {record['resume_dispatched']} episodes")
        if record["knobs"]:
            bad.append(f"REPRO_* knobs leaked into the pass: {record['knobs']}")
        if bad:
            failed += episodes
            problems.extend(f"pass {index}: {problem}" for problem in bad)
    return attempted, failed, problems


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _scaled(record: dict, name: str, phase: str) -> float:
    """A pass's time at the reference host speed."""
    return record[name] * record["speed"][phase]


def _end_to_end(passes: list[dict]) -> dict[str, float]:
    good = [p for p in passes if "error" not in p]
    return {
        "wall_s": _median([_scaled(p, "wall_s", "pass") for p in good]),
        "sim_steps_per_s": _median(
            [p["sim_steps"] / _scaled(p, "wall_s", "pass") for p in good]
        ),
        "setup_s": _median([_scaled(p, "setup_s", "setup") for p in good]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in good]),
        "resume_s": _median([_scaled(p, "resume_s", "resume") for p in good]),
    }


def _per_layer(passes: list[dict]) -> dict[str, float]:
    good = [p for p in passes if "error" not in p]
    traced = [p for p in good if p["traced"]]
    untraced = [p for p in good if not p["traced"]]
    layers = [probes.layer_metrics(p["trace"]) for p in traced]
    metrics = {
        name: _median([layer[name] for layer in layers])
        for name in (layers[0] if layers else {})
    }
    for name in ("interpreter_s", "import_s", "dispatch_s", "fork_s"):
        metrics[f"setup.{name}"] = _median([p["setup"][name] for p in good])
    metrics["executor.worker_rss_mb"] = _median([p["worker_rss_mb"] for p in good])
    metrics["host.speed"] = _median([p["speed"]["pass"] for p in good])
    untraced_wall = _median([_scaled(p, "wall_s", "pass") for p in untraced])
    traced_wall = _median([_scaled(p, "wall_s", "pass") for p in traced])
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1 if untraced_wall else 0.0
    return metrics


def _print_summary(args: argparse.Namespace, passes: list[dict], metrics: dict, spec: tuple):
    first = next((p for p in passes if "digest" in p), None)
    if first is not None:
        print(
            f"{args.workload} seed={args.seed} digest={first['digest']} "
            f"episodes={first['episodes']} sim_steps={first['sim_steps']} "
            f"llm_calls={first['llm_calls']} messages_sent={first['messages_sent']} "
            f"passes={len(passes)}"
        )
    if args.trace:
        print(f"{'layer':<14}{'calls':>12}{'self_s':>12}")
        for layer in probes.LAYERS:
            calls = metrics.get(f"{layer}.calls", 0)
            self_s = metrics.get(f"{layer}.self_s", 0.0)
            print(f"{layer:<14}{calls:>12.0f}{self_s:>12.4f}")
        print(f"{'clock':<14}{metrics.get('clock.calls', 0):>12.0f}")
        print(f"tracing overhead: {metrics['trace.overhead']:+.3f} (traced wall_s / untraced - 1)")
    for name, unit, _ in spec:
        print(f"  {name} = {metrics[name]:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        check=True, env=_clean_env(), timeout=120, stdout=subprocess.DEVNULL,
    )

    passes: list[dict] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        remaining = started + RUN_LIMIT_S - time.monotonic()
        passes.append(_run_pass(args, traced, timeout=remaining))
        elapsed = time.monotonic() - started
        # Start a pass only if it should end within --seconds, so a run
        # lasts about --seconds whatever a workload's pass length.
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
        longest = max(p.get("pass_s", 0.0) for p in passes)
        if elapsed + longest > RUN_LIMIT_S or "pass_s" not in passes[-1]:
            break

    attempted, failed, problems = _check(passes, args.workload, args.seed)
    spec = PER_LAYER if args.trace else END_TO_END
    values = _per_layer(passes) if args.trace else _end_to_end(passes)
    values = {name: values.get(name, 0.0) for name, _, _ in spec}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    correct = failed == 0 and not problems

    OUT_DIR.joinpath("results").mkdir(parents=True, exist_ok=True)
    result_path = OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    first = next((p for p in passes if "nproc" in p), {})
    settings = {
        "git_rev": _git_rev(),
        "nproc": first.get("nproc"),
        "python": platform.python_version(),
        "seed": args.seed,
        "knob_fingerprint": first.get("knobs"),
    }
    result_path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seconds": args.seconds,
                "trace": args.trace,
                **settings,
                "correct": correct,
                "problems": problems,
                "metrics": metrics,
                "passes": passes,
            },
            indent=1,
            sort_keys=True,
        )
    )

    print("settings: " + " ".join(f"{key}={value}" for key, value in settings.items()))
    _print_summary(args, passes, values, spec)
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"full record: {result_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
