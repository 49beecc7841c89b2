"""Shared room-grid geometry for household-style environments.

A :class:`RoomGrid` is a rectangular cell grid partitioned into named
rooms connected by doorways.  Navigation runs real A* over the cells, so
execution latency scales with actual path lengths the way the paper's
low-level planners do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.settings import current
from repro.planners.astar import AStarResult, astar

Cell = tuple[int, int]


@dataclass(frozen=True)
class Room:
    """An axis-aligned rectangular room: cells with x0<=x<x1, y0<=y<y1."""

    name: str
    x0: int
    y0: int
    x1: int
    y1: int

    def contains(self, cell: Cell) -> bool:
        return self.x0 <= cell[0] < self.x1 and self.y0 <= cell[1] < self.y1

    def center(self) -> Cell:
        return ((self.x0 + self.x1 - 1) // 2, (self.y0 + self.y1 - 1) // 2)

    def cells(self) -> list[Cell]:
        return [
            (x, y) for x in range(self.x0, self.x1) for y in range(self.y0, self.y1)
        ]


@dataclass
class RoomGrid:
    """A grid of cells partitioned into rooms, with wall cells blocked."""

    width: int
    height: int
    rooms: list[Room]
    walls: set[Cell] = field(default_factory=set)

    def __post_init__(self) -> None:
        self._room_by_name = {room.name: room for room in self.rooms}
        if len(self._room_by_name) != len(self.rooms):
            raise ValueError("duplicate room names")
        # Walls never change after construction, so a path is a pure
        # function of (start, goal) — memoized on the hot path.  Results
        # are immutable (tuple path), so sharing them is safe.  The same
        # staticness makes a room's passable-cell list reusable, which
        # takes the per-cell passability scan out of every execute-side
        # ``random_cell_in`` (explore/deposit targets, one per navigation).
        fast = current().hotpath
        self._path_cache: dict[tuple[Cell, Cell], AStarResult] | None = (
            {} if fast else None
        )
        self._passable_cache: dict[str, list[Cell]] | None = {} if fast else None

    def room_named(self, name: str) -> Room:
        try:
            return self._room_by_name[name]
        except KeyError:
            known = ", ".join(sorted(self._room_by_name))
            raise KeyError(f"unknown room {name!r}; known: {known}") from None

    def room_of(self, cell: Cell) -> str | None:
        for room in self.rooms:
            if room.contains(cell):
                return room.name
        return None

    def passable(self, cell: Cell) -> bool:
        return (
            0 <= cell[0] < self.width
            and 0 <= cell[1] < self.height
            and cell not in self.walls
        )

    def path(self, start: Cell, goal: Cell) -> AStarResult:
        cache = self._path_cache
        if cache is not None:
            result = cache.get((start, goal))
            if result is not None:
                return result
        result = astar(
            start=start,
            goal=goal,
            passable=self.passable,
            width=self.width,
            height=self.height,
        )
        if cache is not None:
            cache[(start, goal)] = result
        return result

    def _passable_cells(self, room_name: str) -> list[Cell]:
        cache = self._passable_cache
        if cache is not None:
            cells = cache.get(room_name)
            if cells is not None:
                return cells
        cells = [
            cell for cell in self.room_named(room_name).cells() if self.passable(cell)
        ]
        if cache is not None:
            cache[room_name] = cells
        return cells

    def random_cell_in(self, room_name: str, rng: np.random.Generator) -> Cell:
        options = self._passable_cells(room_name)
        if not options:
            raise ValueError(f"room {room_name!r} has no passable cells")
        return options[int(rng.integers(len(options)))]

    def room_names(self) -> list[str]:
        return [room.name for room in self.rooms]


def build_row_of_rooms(
    room_names: list[str],
    room_width: int = 5,
    room_height: int = 5,
) -> RoomGrid:
    """Lay rooms out in a row with single-cell doorways between neighbours.

    The wall column between adjacent rooms is blocked except for a doorway
    at mid-height, forcing realistic inter-room path lengths.
    """
    if not room_names:
        raise ValueError("at least one room required")
    rooms: list[Room] = []
    walls: set[Cell] = set()
    x_cursor = 0
    for index, name in enumerate(room_names):
        rooms.append(
            Room(name=name, x0=x_cursor, y0=0, x1=x_cursor + room_width, y1=room_height)
        )
        x_cursor += room_width
        if index < len(room_names) - 1:
            door_y = room_height // 2
            for y in range(room_height):
                if y != door_y:
                    walls.add((x_cursor, y))
            x_cursor += 1
    return RoomGrid(width=x_cursor, height=room_height, rooms=rooms, walls=walls)
