"""§3.4 geo-clustering and the spatial index behind it.

``geo_clustering`` groups same-step agents whose pairwise chains of
coupling relations connect them — connected components under
``dist <= radius_p + max_vel`` — because such agents may read each
other's last-step writes and must advance together.

The :class:`SpatialIndex` hashes positions into cells of the coupling
threshold so both clustering and blocked-edge discovery touch only local
candidates. Every space answers with cells (the contract is in
:mod:`repro.core.space`), and every query walks one window of them:

* for grid spaces the candidate cells are the **tight window spanned by
  the query's bounding box** (a 2x2 window for the common
  radius <= cell case), and membership uses the space's ``within``
  predicate (squared-distance compare for Euclidean — no sqrt per
  candidate);
* other spaces hand over the same kind of window as four integers
  (``cell_window``; ``GraphSpace`` derives it from landmark BFS levels)
  and are walked by the same loop. A space with neither grid cells nor
  a window is refused at construction;
* :meth:`SpatialIndex.query_into` fills a **caller-owned buffer**, so
  the per-round queries of the controller allocate nothing, and the
  dependency graph's batched commits move members with caller-computed
  cells (:meth:`SpatialIndex.move_bucketed`) against position storage
  it shares with the graph.

Coupling components are searched *inside*
:class:`~repro.core.dependency_graph.SpatioTemporalGraph`
(``component_for``, one BFS seeded by the candidates its commits derive
from the blocked edges); this module only answers the spatial queries.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from .._util import UnionFind
from ..errors import ConfigError
from .space import Position, Space


class SpatialIndex:
    """Bucketed position index over a :class:`Space`."""

    def __init__(self, space: Space, cell: float) -> None:
        if cell <= 0:
            raise ValueError("cell size must be positive")
        self.space = space
        self.cell = cell
        self._buckets: dict[tuple, set[Hashable]] = {}
        self._positions: dict[Hashable, Position] = {}
        #: How a query derives its cell window (see module docstring).
        self._grid = bool(getattr(space, "grid_bucketing", False))
        self._window = None if self._grid \
            else getattr(space, "cell_window", None)
        if not self._grid and self._window is None:
            raise ConfigError(
                f"{type(space).__name__} has neither grid_bucketing nor "
                f"cell_window; a space that cannot bound distances "
                f"answers with one constant cell: bucket -> (0, 0) and "
                f"cell_window -> (0, 0, 0, 0)")
        within = getattr(space, "within", None)
        if within is None:
            dist = space.dist
            def within(a, b, radius, _dist=dist):  # noqa: E306
                return _dist(a, b) <= radius
        self._within = within

    def bulk_load(self, items: Iterable[tuple[Hashable, Position]]) -> None:
        """Insert many fresh ``(key, pos)`` pairs in one pass (keys must
        not already be present)."""
        positions = self._positions
        setdefault = self._buckets.setdefault
        bucket = self.space.bucket
        cell = self.cell
        for key, pos in items:
            positions[key] = pos
            setdefault(bucket(pos, cell), set()).add(key)

    def bulk_load_cells(self, cells: Sequence[tuple]
                        ) -> dict[tuple, set[Hashable]]:
        """Bulk-load dense keys ``0..n-1`` from precomputed fine cells.

        For array-backed callers (the dependency graph): the caller
        owns position storage (it aliases its dense position list into
        :attr:`_positions`) and has already derived every agent's cell,
        so this builds only the bucket map — no ``Space.bucket`` call,
        no second position dict. Returns the bucket dict so the caller
        can seed further per-cell structures from the same grouping
        without regrouping (the graph builds its step-bucketed slot
        table straight from it).
        """
        buckets = self._buckets
        get = buckets.get
        for key, c in enumerate(cells):
            b = get(c)
            if b is None:
                buckets[c] = b = set()
            b.add(key)
        return buckets

    def move_bucketed(self, key: Hashable, old_bucket: tuple,
                      new_bucket: tuple) -> None:
        """Bucket transfer with caller-computed cells (batched commits).

        The dependency graph already derived every member's old/new cell
        and owns the position storage (it aliases its dense position
        list into :attr:`_positions`), so this touches only the bucket
        sets. ``key`` must already be present.
        """
        members = self._buckets.get(old_bucket)
        if members is not None:
            members.discard(key)
            if not members:
                del self._buckets[old_bucket]
        self._buckets.setdefault(new_bucket, set()).add(key)

    def query(self, pos: Position, radius: float) -> list[Hashable]:
        """Keys within ``radius`` of ``pos`` (inclusive)."""
        return self.query_into(pos, radius, [])

    def query_into(self, pos: Position, radius: float,
                   out: list) -> list[Hashable]:
        """Like :meth:`query`, but fills and returns the caller's buffer.

        The buffer is cleared first; hot paths own one scratch list and
        pass it to every query, eliminating per-query allocation.
        """
        out.clear()
        positions = self._positions
        buckets = self._buckets
        within = self._within
        # Tight cell window: candidates lie in the cells spanned by the
        # query's bounding box — for the common radius <= cell case that
        # is a 2x2 window, not a 3x3 center stencil — or, off the grid,
        # in the space's own ``cell_window``.
        cell = self.cell
        if self._grid:
            x = pos[0]
            y = pos[1]
            cx0 = int((x - radius) // cell)
            cx1 = int((x + radius) // cell)
            cy0 = int((y - radius) // cell)
            cy1 = int((y + radius) // cell)
        else:
            cx0, cx1, cy0, cy1 = self._window(pos, radius, cell)
        if (cx1 - cx0 + 1) * (cy1 - cy0 + 1) > len(buckets):
            # Wide query (blocker radius grows with step spread):
            # scanning the occupied buckets beats probing a mostly
            # empty window.
            for (bx, by), members in buckets.items():
                if cx0 <= bx <= cx1 and cy0 <= by <= cy1:
                    for key in members:
                        if within(pos, positions[key], radius):
                            out.append(key)
            return out
        for bx in range(cx0, cx1 + 1):
            for by in range(cy0, cy1 + 1):
                members = buckets.get((bx, by))
                if members:
                    for key in members:
                        if within(pos, positions[key], radius):
                            out.append(key)
        return out


def geo_clustering(agent_ids: Sequence[int],
                   positions: Iterable[Position],
                   space: Space,
                   threshold: float) -> list[list[int]]:
    """Connected components of the coupling relation among ``agent_ids``.

    Returns clusters as sorted lists of agent ids; every agent appears in
    exactly one cluster (singletons included).
    """
    ids = list(agent_ids)
    pos = list(positions)
    if len(ids) != len(pos):
        raise ValueError("agent_ids and positions length mismatch")
    if not ids:
        return []
    index = SpatialIndex(space, cell=max(threshold, 1e-9))
    index.bulk_load(enumerate(pos))
    uf = UnionFind(len(ids))
    buf: list[int] = []
    for i, p in enumerate(pos):
        for j in index.query_into(p, threshold, buf):
            if j > i:
                uf.union(i, j)
    clusters = []
    for group in uf.groups(range(len(ids))):
        clusters.append(sorted(ids[i] for i in group))
    clusters.sort()
    return clusters
