"""Kitchen environment: Franka Kitchen / Meta-World substitute.

Short-horizon manipulation: an episode is a set of micro-tasks (open the
microwave, slide the kettle, flip the light switch, ...) completed in any
order.  Execution runs a simulated low-level policy network (MLP forward
passes per control tick) with per-attempt success probability — the
EmbodiedGPT pipeline of a language planner picking sub-tasks and a policy
head executing them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.beliefs import Beliefs
from repro.core.types import Candidate, Fact, Subgoal, TaskSpec
from repro.envs.base import Environment, ExecutionOutcome
from repro.planners.costmodel import ComputeCost

#: Policy control ticks per manipulation attempt.
POLICY_TICKS = 40
ATTEMPT_SECONDS = 2.6
#: Probability one policy attempt completes the micro-task.
ATTEMPT_SUCCESS_P = 0.88

MICRO_TASKS = (
    "open_microwave",
    "move_kettle",
    "flip_light_switch",
    "open_slide_cabinet",
    "turn_oven_knob",
    "open_hinge_cabinet",
)

_DIFFICULTY_SETTINGS = {"easy": 6, "medium": 12, "hard": 18}


@dataclass
class _MicroTask:
    name: str
    done: bool = False


class KitchenEnv(Environment):
    """See module docstring."""

    name = "kitchen"

    def __init__(self, task: TaskSpec, rng: np.random.Generator) -> None:
        super().__init__(task, rng)
        count = _DIFFICULTY_SETTINGS[task.difficulty]
        # Episodes queue multiple instances of the micro-task library (a
        # Meta-World style multi-task session), named uniquely so status
        # facts stay unambiguous.
        self.micro_tasks: dict[str, _MicroTask] = {}
        for index in range(count):
            base = MICRO_TASKS[int(rng.integers(len(MICRO_TASKS)))]
            name = f"{base}_{index}"
            self.micro_tasks[name] = _MicroTask(name=name)

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #

    def agent_position(self, agent: str) -> str:
        return "kitchen_counter"

    def visible_facts(self, agent: str) -> list[Fact]:
        step = self.state.step_index
        return [
            Fact(
                subject=micro.name,
                relation="status",
                value="done" if micro.done else "pending",
                step=step,
            )
            for micro in sorted(self.micro_tasks.values(), key=lambda m: m.name)
        ]

    def static_facts(self) -> list[Fact]:
        return []

    def location_vocabulary(self) -> list[str]:
        return ["kitchen_counter"]

    # ------------------------------------------------------------------ #
    # Affordances
    # ------------------------------------------------------------------ #

    def candidates(self, agent: str, beliefs: Beliefs) -> tuple[Candidate, ...]:
        option = self.option
        options: list[Candidate] = []
        for micro in self.micro_tasks.values():
            if beliefs.value(micro.name, "status") == "done":
                options.append(option("perform", micro.name, feasible=False))
            else:
                options.append(option("perform", micro.name, utility=0.9))
        options.append(option("idle", utility=0.02))
        options.extend(self.hallucination_candidates(count=1))
        return tuple(options)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _do_perform(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        micro = self.micro_tasks.get(subgoal.target)
        if micro is None:
            return ExecutionOutcome.failure(f"unknown micro task {subgoal.target!r}")
        if micro.done:
            return ExecutionOutcome.failure("micro task already done")
        succeeded = bool(rng.random() < ATTEMPT_SUCCESS_P)
        if succeeded:
            micro.done = True
        return ExecutionOutcome(
            success=succeeded,
            primitive_count=POLICY_TICKS,
            compute=ComputeCost(policy_forwards=POLICY_TICKS),
            actuation_seconds=ATTEMPT_SECONDS,
            reason="" if succeeded else "policy attempt failed",
            progress_delta=(1.0 / max(1, len(self.micro_tasks))) if succeeded else 0.0,
        )

    def expected_primitives(self, agent: str, subgoal: Subgoal) -> int:
        return POLICY_TICKS if subgoal.name == "perform" else 1

    # ------------------------------------------------------------------ #
    # Goals
    # ------------------------------------------------------------------ #

    def goal_progress(self) -> float:
        done = sum(1 for micro in self.micro_tasks.values() if micro.done)
        return done / max(1, len(self.micro_tasks))

    def describe_task(self) -> str:
        names = ", ".join(sorted(self.micro_tasks))
        return f"Kitchen manipulation task: complete the sub tasks {names}."
