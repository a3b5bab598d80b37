"""§3.4 geo-clustering and the spatial index behind it.

``geo_clustering`` groups same-step agents whose pairwise chains of
coupling relations connect them — connected components under
``dist <= radius_p + max_vel`` — because such agents may read each
other's last-step writes and must advance together.

The :class:`SpatialIndex` hashes positions into cells of the coupling
threshold so both clustering and blocked-edge discovery touch only local
candidates. Three hot-path refinements keep the controller's critical
path light (§3.6):

* for grid spaces the candidate cells are the **tight window spanned by
  the query's bounding box** (a 2x2 window for the common
  radius <= cell case), and membership uses the space's ``within``
  predicate (squared-distance compare for Euclidean — no sqrt per
  candidate);
* :meth:`SpatialIndex.query_into` fills a **caller-owned buffer**, so
  the per-round queries of the controller allocate nothing, and the
  dependency graph's batched commits move members with caller-computed
  cells (:meth:`SpatialIndex.move_bucketed`) against position storage
  it shares with the graph;
* non-coordinate spaces with cells (``GraphSpace``: landmark BFS
  levels, see :mod:`repro.core.space`) hand over the same kind of
  window as four integers (``cell_window``) and are walked by the same
  loop, with the exact ``within`` predicate per candidate; only a space
  with no bucketing at all degrades to a linear scan of its
  ``bucket_range``.

Coupling components are searched *inside*
:class:`~repro.core.dependency_graph.SpatioTemporalGraph`
(``component_for``, one BFS seeded by the candidates its commits derive
from the blocked edges); this module only answers the spatial queries.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from .._util import UnionFind
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
        #: Fast-path hooks (see module docstring).
        self._grid = bool(getattr(space, "grid_bucketing", False))
        #: ``cell_window`` of a non-grid space with cells (GraphSpace).
        self._window = getattr(space, "cell_window", None) \
            if getattr(space, "cell_bucketing", False) and not self._grid \
            else None
        within = getattr(space, "within", None)
        if within is None:
            dist = space.dist
            def within(a, b, radius, _dist=dist):  # noqa: E306
                return _dist(a, b) <= radius
        self._within = within

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._positions

    def position(self, key: Hashable) -> Position:
        return self._positions[key]

    def insert(self, key: Hashable, pos: Position) -> None:
        if key in self._positions:
            self.remove(key)
        self._positions[key] = pos
        self._buckets.setdefault(self.space.bucket(pos, self.cell),
                                 set()).add(key)

    def bulk_load(self, items: Iterable[tuple[Hashable, Position]]) -> None:
        """Insert many fresh ``(key, pos)`` pairs in one pass.

        Skips the per-item presence check of :meth:`insert`; callers
        load whole trace slices or initial populations this way (keys
        must not already be present).
        """
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

        Fast path for array-backed callers (the dependency graph): the
        caller owns position storage (it aliases its dense position
        list into :attr:`_positions`) and has already derived every
        agent's cell in one vectorized pass, so this builds only the
        bucket map — grouped set construction against reused dict
        entries, no per-item ``insert``/presence-check churn, no
        second position dict. Returns the bucket dict so the caller
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

    def remove(self, key: Hashable) -> None:
        pos = self._positions.pop(key)
        bucket = self.space.bucket(pos, self.cell)
        members = self._buckets.get(bucket)
        if members is not None:
            members.discard(key)
            if not members:
                del self._buckets[bucket]

    def move(self, key: Hashable, pos: Position) -> None:
        old = self._positions.get(key)
        if old is not None:
            cell = self.cell
            old_bucket = self.space.bucket(old, cell)
            new_bucket = self.space.bucket(pos, cell)
            self._positions[key] = pos
            if old_bucket == new_bucket:
                return
            members = self._buckets.get(old_bucket)
            if members is not None:
                members.discard(key)
                if not members:
                    del self._buckets[old_bucket]
            self._buckets.setdefault(new_bucket, set()).add(key)
            return
        self.insert(key, pos)

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
        window = self._window
        if self._grid or window is not None:
            # Tight cell window: candidates lie in the cells spanned by
            # the query's bounding box — for the common radius <= cell
            # case that is a 2x2 window, not a 3x3 center stencil —
            # or, off the grid, in the space's own ``cell_window``.
            cell = self.cell
            if window is not None:
                cx0, cx1, cy0, cy1 = window(pos, radius, cell)
            else:
                x = pos[0]
                y = pos[1]
                cx0 = int((x - radius) // cell)
                cx1 = int((x + radius) // cell)
                cy0 = int((y - radius) // cell)
                cy1 = int((y + radius) // cell)
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
        seen_linear = False
        for bucket in self.space.bucket_range(pos, radius, self.cell):
            if bucket == ():  # non-geometric space: one global bucket
                if seen_linear:
                    continue
                seen_linear = True
            members = buckets.get(bucket)
            if not members:
                continue
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


def brute_force_clustering(agent_ids: Sequence[int],
                           positions: Sequence[Position],
                           space: Space,
                           threshold: float) -> list[list[int]]:
    """O(n^2) reference implementation used to cross-check the indexed one."""
    ids = list(agent_ids)
    uf = UnionFind(len(ids))
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if space.dist(positions[i], positions[j]) <= threshold:
                uf.union(i, j)
    clusters = [sorted(ids[i] for i in group)
                for group in uf.groups(range(len(ids)))]
    clusters.sort()
    return clusters
