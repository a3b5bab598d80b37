"""Grid pathfinding.

Trace generation needs tens of thousands of venue-to-venue walks, so the
planner is a *distance-field* router: one BFS flood per goal tile (cached)
and greedy descent from any start. This is equivalent to shortest paths on
the 4-connected grid and amortizes perfectly across agents that share
destinations (everyone walks to the cafe at lunch). Its cross-check in
the tests is a plain A* (``tests/helpers.py::reference_astar``).
"""

from __future__ import annotations

import numpy as np

from ..errors import WorldError
from .grid import GridWorld

_UNREACHABLE = np.iinfo(np.int32).max


class PathPlanner:
    """Shortest-path routing with per-goal BFS distance fields."""

    def __init__(self, world: GridWorld) -> None:
        self.world = world
        self._fields: dict[tuple[int, int], np.ndarray] = {}

    def distance_field(self, goal: tuple[int, int]) -> np.ndarray:
        """BFS hop-count array from every tile to ``goal`` (cached,
        read-only: the planner and its callers share one array)."""
        field = self._fields.get(goal)
        if field is not None:
            return field
        gx, gy = goal
        if not self.world.is_walkable(gx, gy):
            raise WorldError(f"goal {goal} is not walkable")
        walkable = self.world.walkable
        field = np.full(walkable.shape, _UNREACHABLE, dtype=np.int32)
        # Level-synchronous flood: BFS levels do not depend on visiting
        # order, so dilating the whole frontier at once (four shifted
        # ORs) writes the field a tile queue would.
        frontier = np.zeros(walkable.shape, dtype=bool)
        frontier[gy, gx] = True
        unseen = walkable & ~frontier
        hops = 0
        while frontier.any():
            field[frontier] = hops
            grown = np.zeros_like(frontier)
            grown[1:] |= frontier[:-1]
            grown[:-1] |= frontier[1:]
            grown[:, 1:] |= frontier[:, :-1]
            grown[:, :-1] |= frontier[:, 1:]
            frontier = grown & unseen
            unseen &= ~frontier
            hops += 1
        field.setflags(write=False)  # shared by every walk in the process
        self._fields[goal] = field
        return field

    def distance(self, start: tuple[int, int], goal: tuple[int, int]) -> int:
        field = self.distance_field(goal)
        d = int(field[start[1], start[0]])
        if d == _UNREACHABLE:
            raise WorldError(f"no path from {start} to {goal}")
        return d

    def next_step(self, start: tuple[int, int],
                  goal: tuple[int, int]) -> tuple[int, int]:
        """The next tile on a shortest path (``start`` if already there)."""
        if start == goal:
            return start
        field = self.distance_field(goal)
        x, y = start
        here = field[y, x]
        if here == _UNREACHABLE:
            raise WorldError(f"no path from {start} to {goal}")
        best = start
        best_d = here
        # Deterministic neighbour order keeps replay stable.
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if self.world.is_walkable(nx, ny) and field[ny, nx] < best_d:
                best, best_d = (nx, ny), field[ny, nx]
        return best

    def path(self, start: tuple[int, int],
             goal: tuple[int, int]) -> list[tuple[int, int]]:
        """Full shortest path, including both endpoints."""
        out = [start]
        pos = start
        limit = self.world.width * self.world.height + 1
        for _ in range(limit):
            if pos == goal:
                return out
            pos = self.next_step(pos, goal)
            out.append(pos)
        raise WorldError("path descent did not terminate")  # pragma: no cover
