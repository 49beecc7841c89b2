"""Boxworld environment: a BoxNet1 substitute.

A line of cells with fixed robot arms packed shoulder to shoulder.  Each
arm reaches its base cell and the adjacent cells; boxes must be relayed
arm-to-arm toward target cells.

Used by: CMAS (centralized), DMAS (decentralized), HMAS (hybrid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.beliefs import Beliefs
from repro.core.types import Candidate, Fact, Subgoal, TaskSpec
from repro.envs.base import Environment, ExecutionOutcome
from repro.planners.costmodel import ComputeCost


MOVE_BOX_SECONDS = 2.4
PRIMITIVES_PER_MOVE = 4

_DIFFICULTY_SETTINGS = {"easy": 6, "medium": 10, "hard": 14}


@dataclass
class _Box:
    name: str
    cell: int
    target: int

    @property
    def done(self) -> bool:
        return self.cell == self.target


@dataclass
class _Arm:
    name: str
    base: int

    def reaches(self, cell: int) -> bool:
        return abs(cell - self.base) <= 1


class BoxWorldEnv(Environment):
    """See module docstring."""

    name = "boxworld"

    def __init__(self, task: TaskSpec, rng: np.random.Generator) -> None:
        super().__init__(task, rng)
        if task.n_agents < 2:
            raise ValueError("boxworld needs at least 2 arms")
        self._arms: dict[str, _Arm] = {
            agent: _Arm(name=agent, base=index) for index, agent in enumerate(self.agents)
        }
        self.n_cells = len(self.agents)

        n_boxes = _DIFFICULTY_SETTINGS[task.difficulty]
        self.boxes: dict[str, _Box] = {}
        for index in range(n_boxes):
            start = int(rng.integers(self.n_cells))
            target = int(rng.integers(self.n_cells))
            while target == start and self.n_cells > 1:
                target = int(rng.integers(self.n_cells))
            # A draw per box that nothing reads: the goldens pin the
            # environment's rng stream, so it stays.
            rng.random()
            self.boxes[f"box_{index}"] = _Box(name=f"box_{index}", cell=start, target=target)

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #

    def agent_position(self, agent: str) -> str:
        return f"cell_{self._arms[agent].base}"

    def visible_facts(self, agent: str) -> list[Fact]:
        step = self.state.step_index
        facts = []
        for box in self.boxes.values():
            if box.done:
                facts.append(
                    Fact(subject=box.name, relation="done", value="true", step=step)
                )
            else:
                facts.append(
                    Fact(
                        subject=box.name,
                        relation="at_cell",
                        value=f"cell_{box.cell}",
                        step=step,
                    )
                )
        return sorted(facts, key=lambda fact: (fact.subject, fact.relation))

    def static_facts(self) -> list[Fact]:
        return [
            Fact(subject=box.name, relation="target", value=f"cell_{box.target}")
            for box in sorted(self.boxes.values(), key=lambda b: b.name)
        ]

    def location_vocabulary(self) -> list[str]:
        return [f"cell_{index}" for index in range(self.n_cells)]

    # ------------------------------------------------------------------ #
    # Affordances
    # ------------------------------------------------------------------ #

    def candidates(self, agent: str, beliefs: Beliefs) -> tuple[Candidate, ...]:
        arm = self._arms[agent]
        option = self.option
        options: list[Candidate] = []
        for box in self.boxes.values():
            believed_cell = self._believed_cell(beliefs, box)
            if box.done or believed_cell is None or not arm.reaches(believed_cell):
                continue
            targeted_by = beliefs.value(box.name, "targeted_by")
            claimed_penalty = 0.5 if targeted_by not in ("", None, agent) else 1.0
            direction = 1 if box.target > believed_cell else -1
            toward = believed_cell + direction
            away = believed_cell - direction
            if arm.reaches(toward) and 0 <= toward < self.n_cells:
                options.append(
                    option("move_box", box.name, f"cell_{toward}", utility=0.85 * claimed_penalty)
                )
            if arm.reaches(away) and 0 <= away < self.n_cells:
                # Moving a box away from its target is strictly worse than
                # idling: it must rank below idle or a bystander arm will
                # "helpfully" play tug-of-war with the productive arm.  It
                # remains in the list as suboptimal-fault material.
                options.append(option("move_box", box.name, f"cell_{away}", utility=0.03))
        options.append(option("idle", utility=0.05))
        options.extend(self.hallucination_candidates())
        return tuple(options)

    def _believed_cell(self, beliefs: Beliefs, box: _Box) -> int | None:
        value = beliefs.value(box.name, "at_cell")
        if value is None:
            return None
        try:
            return int(value.removeprefix("cell_"))
        except ValueError:
            return None

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def expected_primitives(self, agent: str, subgoal: Subgoal) -> int:
        if subgoal.name == "move_box":
            return PRIMITIVES_PER_MOVE + 2  # reach, align, grab, move, place, release
        return 1

    def _do_move_box(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        box = self.boxes.get(subgoal.target)
        if box is None:
            return ExecutionOutcome.failure(f"no such box {subgoal.target!r}")
        arm = self._arms[agent]
        if box.done:
            return ExecutionOutcome.failure("box already done")
        if not arm.reaches(box.cell):
            return ExecutionOutcome.failure("box out of reach")
        try:
            destination = int(subgoal.destination.removeprefix("cell_"))
        except ValueError:
            return ExecutionOutcome.failure(f"bad destination {subgoal.destination!r}")
        if not (0 <= destination < self.n_cells) or abs(destination - box.cell) != 1:
            return ExecutionOutcome.failure("destination not adjacent")
        if not arm.reaches(destination):
            return ExecutionOutcome.failure("destination out of reach")
        if not self.claim(f"box:{box.name}", agent):
            return ExecutionOutcome.failure("box claimed by teammate")
        old_distance = abs(box.cell - box.target)
        box.cell = destination
        new_distance = abs(box.cell - box.target)
        progress = 0.0
        if box.done:
            progress = 1.0 / max(1, len(self.boxes))
        return ExecutionOutcome(
            success=True,
            primitive_count=PRIMITIVES_PER_MOVE,
            compute=ComputeCost(actionlist_actions=PRIMITIVES_PER_MOVE),
            actuation_seconds=MOVE_BOX_SECONDS,
            progress_delta=progress,
            reason="" if new_distance < old_distance else "moved away from target",
        )

    # ------------------------------------------------------------------ #
    # Goals
    # ------------------------------------------------------------------ #

    def goal_progress(self) -> float:
        done = sum(1 for box in self.boxes.values() if box.done)
        return done / max(1, len(self.boxes))

    def describe_task(self) -> str:
        return (
            f"Box relay task (boxnet1): move all {len(self.boxes)} boxes "
            "to their target cells by passing them between robot arms."
        )
