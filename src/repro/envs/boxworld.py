"""Boxworld environment: BoxNet1/BoxNet2, Warehouse, and BoxLift substitute.

A line of cells with fixed robot arms.  Each arm reaches its base cell and
the adjacent cells; boxes must be relayed arm-to-arm toward target cells.
The ``boxlift`` variant adds heavy boxes that two arms must lift in the
same macro step — the canonical coordination stressor from the CMAS/DMAS/
HMAS paper.  Variants are selected through ``TaskSpec.params["variant"]``:

- ``boxnet1`` (default): arms packed shoulder to shoulder (short relays).
- ``warehouse``: arms spread out, so relays take twice the handoffs.
- ``boxlift``: half the boxes are heavy and need synchronized lifting.

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
LIFT_SECONDS = 3.0
PRIMITIVES_PER_MOVE = 4
PRIMITIVES_PER_LIFT = 3

_DIFFICULTY_SETTINGS = {"easy": 6, "medium": 10, "hard": 14}
VARIANTS = ("boxnet1", "boxnet2", "warehouse", "boxlift")


@dataclass
class _Box:
    name: str
    cell: int
    target: int
    heavy: bool = False
    lifted: bool = False

    @property
    def done(self) -> bool:
        return self.lifted if self.heavy else self.cell == self.target


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
        self.variant: str = str(task.params.get("variant", "boxnet1"))
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown boxworld variant {self.variant!r}")

        spacing = 2 if self.variant == "warehouse" else 1
        self._arms: dict[str, _Arm] = {
            agent: _Arm(name=agent, base=index * spacing)
            for index, agent in enumerate(self.agents)
        }
        self.n_cells = (len(self.agents) - 1) * spacing + 1

        n_boxes = _DIFFICULTY_SETTINGS[task.difficulty]
        heavy_fraction = 0.5 if self.variant == "boxlift" else 0.0
        self.boxes: dict[str, _Box] = {}
        for index in range(n_boxes):
            start = int(rng.integers(self.n_cells))
            target = int(rng.integers(self.n_cells))
            while target == start and self.n_cells > 1:
                target = int(rng.integers(self.n_cells))
            heavy = rng.random() < heavy_fraction
            self.boxes[f"box_{index}"] = _Box(
                name=f"box_{index}", cell=start, target=target, heavy=heavy
            )
        self._lift_support: dict[str, set[str]] = {}

    def tick(self) -> None:
        super().tick()
        self._lift_support.clear()

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
        facts = []
        for box in sorted(self.boxes.values(), key=lambda b: b.name):
            facts.append(
                Fact(subject=box.name, relation="target", value=f"cell_{box.target}")
            )
            if box.heavy:
                facts.append(Fact(subject=box.name, relation="weight", value="heavy"))
        return facts

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
            if box.heavy:
                options.append(option("lift", box.name, utility=0.9 * claimed_penalty))
                continue
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

    def execute(
        self, agent: str, subgoal: Subgoal, rng: np.random.Generator
    ) -> ExecutionOutcome:
        if subgoal.name == "move_box":
            return self._do_move(agent, subgoal)
        if subgoal.name == "lift":
            return self._do_lift(agent, subgoal)
        if subgoal.name == "idle":
            return ExecutionOutcome(
                success=True, primitive_count=1, compute=ComputeCost(), actuation_seconds=0.5
            )
        return ExecutionOutcome.failure(f"unknown subgoal {subgoal.name!r}")

    def expected_primitives(self, agent: str, subgoal: Subgoal) -> int:
        if subgoal.name == "move_box":
            return PRIMITIVES_PER_MOVE + 2  # reach, align, grab, move, place, release
        if subgoal.name == "lift":
            return PRIMITIVES_PER_LIFT + 2
        return 1

    def _do_move(self, agent: str, subgoal: Subgoal) -> ExecutionOutcome:
        box = self.boxes.get(subgoal.target)
        if box is None:
            return ExecutionOutcome.failure(f"no such box {subgoal.target!r}")
        arm = self._arms[agent]
        if box.done:
            return ExecutionOutcome.failure("box already done")
        if box.heavy:
            return ExecutionOutcome.failure("box too heavy to move alone")
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

    def _do_lift(self, agent: str, subgoal: Subgoal) -> ExecutionOutcome:
        box = self.boxes.get(subgoal.target)
        if box is None:
            return ExecutionOutcome.failure(f"no such box {subgoal.target!r}")
        arm = self._arms[agent]
        if not box.heavy:
            return ExecutionOutcome.failure("box does not need lifting")
        if box.lifted:
            return ExecutionOutcome.failure("box already lifted")
        if not arm.reaches(box.cell):
            return ExecutionOutcome.failure("box out of reach")
        supporters = self._lift_support.setdefault(box.name, set())
        supporters.add(agent)
        if len(supporters) >= 2:
            box.lifted = True
            return ExecutionOutcome(
                success=True,
                primitive_count=PRIMITIVES_PER_LIFT,
                compute=ComputeCost(actionlist_actions=PRIMITIVES_PER_LIFT),
                actuation_seconds=LIFT_SECONDS,
                progress_delta=1.0 / max(1, len(self.boxes)),
            )
        return ExecutionOutcome(
            success=True,
            primitive_count=PRIMITIVES_PER_LIFT,
            compute=ComputeCost(actionlist_actions=PRIMITIVES_PER_LIFT),
            actuation_seconds=LIFT_SECONDS,
            reason="waiting for lift partner",
        )

    # ------------------------------------------------------------------ #
    # Goals
    # ------------------------------------------------------------------ #

    def goal_progress(self) -> float:
        done = sum(1 for box in self.boxes.values() if box.done)
        return done / max(1, len(self.boxes))

    def describe_task(self) -> str:
        heavies = sum(1 for box in self.boxes.values() if box.heavy)
        text = (
            f"Box relay task ({self.variant}): move all {len(self.boxes)} boxes "
            "to their target cells by passing them between robot arms."
        )
        if heavies:
            text += f" {heavies} boxes are heavy and need two arms lifting together."
        return text
