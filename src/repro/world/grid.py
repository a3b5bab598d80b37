"""Tile grid, venues, and spatial queries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import FastRng, Pcg64
from ..errors import WorldError


@dataclass(frozen=True)
class Venue:
    """A named rectangular region of the map (a house, the cafe...).

    ``x0..x1`` / ``y0..y1`` are inclusive tile bounds of the interior.
    """

    name: str
    x0: int
    y0: int
    x1: int
    y1: int
    #: Interactable objects inside the venue (bed, stove, counter...).
    objects: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise WorldError(f"venue {self.name}: empty bounds")

    @property
    def center(self) -> tuple[int, int]:
        return ((self.x0 + self.x1) // 2, (self.y0 + self.y1) // 2)

    def contains(self, x: int, y: int) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def tiles(self) -> list[tuple[int, int]]:
        return [(x, y) for y in range(self.y0, self.y1 + 1)
                for x in range(self.x0, self.x1 + 1)]


class GridWorld:
    """A 2D tile map with walls and venues.

    Agents occupy tiles and move at most one tile per step in the four
    cardinal directions (so per-step displacement never exceeds the
    ``max_vel = 1`` used by the dependency rules).
    """

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise WorldError("world dimensions must be positive")
        self.width = width
        self.height = height
        #: True where an agent may stand.
        self.walkable = np.ones((height, width), dtype=bool)
        self.venues: dict[str, Venue] = {}
        #: tile -> the first-declared venue covering it; built at the
        #: first :meth:`venue_at`, dropped by :meth:`add_venue`.
        self._venue_of_tile: dict[tuple[int, int], Venue] | None = None

    # -- construction ------------------------------------------------------

    def add_wall_rect(self, x0: int, y0: int, x1: int, y1: int,
                      doors: list[tuple[int, int]] | None = None) -> None:
        """Wall the perimeter of a rectangle, leaving ``doors`` open."""
        self._check_bounds(x0, y0)
        self._check_bounds(x1, y1)
        self.walkable[y0, x0:x1 + 1] = False
        self.walkable[y1, x0:x1 + 1] = False
        self.walkable[y0:y1 + 1, x0] = False
        self.walkable[y0:y1 + 1, x1] = False
        for dx, dy in doors or []:
            self._check_bounds(dx, dy)
            self.walkable[dy, dx] = True

    def add_venue(self, venue: Venue, walled: bool = True) -> None:
        if venue.name in self.venues:
            raise WorldError(f"duplicate venue {venue.name!r}")
        self._check_bounds(venue.x0, venue.y0)
        self._check_bounds(venue.x1, venue.y1)
        self.venues[venue.name] = venue
        self._venue_of_tile = None
        if walled:
            # Perimeter one tile outside the interior, door at bottom center.
            x0, y0 = venue.x0 - 1, venue.y0 - 1
            x1, y1 = venue.x1 + 1, venue.y1 + 1
            if x0 >= 0 and y0 >= 0 and x1 < self.width and y1 < self.height:
                door = ((venue.x0 + venue.x1) // 2, y1)
                self.add_wall_rect(x0, y0, x1, y1, doors=[door])

    # -- queries ------------------------------------------------------------

    def _check_bounds(self, x: int, y: int) -> None:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise WorldError(
                f"({x}, {y}) outside {self.width}x{self.height} map")

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def is_walkable(self, x: int, y: int) -> bool:
        return self.in_bounds(x, y) and bool(self.walkable[y, x])

    def venue_at(self, x: int, y: int) -> Venue | None:
        table = self._venue_of_tile
        if table is None:
            table = self._venue_of_tile = {}
            for venue in self.venues.values():
                for tile in venue.tiles():
                    table.setdefault(tile, venue)
        return table.get((x, y))

    def venue(self, name: str) -> Venue:
        try:
            return self.venues[name]
        except KeyError:
            raise WorldError(f"unknown venue {name!r}") from None

    def neighbors(self, x: int, y: int) -> list[tuple[int, int]]:
        """Walkable 4-neighbourhood."""
        out = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if self.is_walkable(nx, ny):
                out.append((nx, ny))
        return out

    def random_walkable_tile(self, rng: Pcg64 | FastRng,
                             venue: Venue | None = None) -> tuple[int, int]:
        """A uniformly random walkable tile (within ``venue`` if given);
        ``rng`` needs ``integers(lo, hi)`` only."""
        for _ in range(1000):
            if venue is None:
                x = int(rng.integers(0, self.width))
                y = int(rng.integers(0, self.height))
            else:
                x = int(rng.integers(venue.x0, venue.x1 + 1))
                y = int(rng.integers(venue.y0, venue.y1 + 1))
            if self.is_walkable(x, y):
                return x, y
        raise WorldError("could not find a walkable tile")
