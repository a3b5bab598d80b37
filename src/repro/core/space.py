"""Distance spaces for the dependency rules.

The paper derives its rules for Euclidean distance but notes (§6) that
they extend to any space with a notion of distance bounding information
propagation — e.g. hop distance in a social network. Everything in
:mod:`repro.core` works against this small protocol.

Every space answers with **cells**: :meth:`Space.bucket` returns 2D
*integer cells whose per-axis difference lower-bounds the true
distance* (cells ``k`` and ``k + dc`` on any axis imply
``dist >= (dc - 1) * cell``). This is the only property the
step-bucketed blocker index and the slack/near/wake machinery in
:mod:`repro.core.dependency_graph` need. How the cells are walked is
one flag plus one method:

* ``grid_bucketing = True`` — positions are 2D numeric coordinates and
  :meth:`Space.bucket` is plain floor division, so the spatial index and
  the dependency graph's commit derive cells and windows inline;
* otherwise the space gives ``cell_window(pos, radius, cell)``: the
  inclusive cell ranges ``(x0, x1, y0, y1)`` that may hold positions
  within ``radius`` (:class:`GraphSpace`: landmark BFS levels).

A space that cannot bound distances at all answers with **one constant
cell**: ``bucket`` returns ``(0, 0)`` and ``cell_window`` ``(0, 0, 0,
0)``. That is always sound, and costs a linear scan through the same
code. A space with neither ``grid_bucketing`` nor ``cell_window`` is
refused by :class:`~repro.core.clustering.SpatialIndex`.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from operator import itemgetter
from typing import Hashable, Iterable, Protocol

import numpy as np

from ..errors import ConfigError

Position = Hashable


class Space(Protocol):
    """A metric over agent positions.

    Spaces may additionally provide optional performance hooks the
    :class:`~repro.core.clustering.SpatialIndex`, the dependency graph
    and the speculative driver exploit:

    * ``within(a, b, radius) -> bool`` — radius membership without
      computing the distance itself (Euclidean skips the sqrt);
    * ``within_mat(dx, dy, radius) -> bool ndarray`` — the same
      predicate over numpy coordinate-delta arrays (coordinate spaces
      only); its one reader is speculation's race oracle, which tests a
      blocker's whole launch-window trajectory against a member's tile
      in one masked reduction;
    * ``grid_bucketing = True`` — declares 2D numeric coordinates with
      floor-division cells, enabling inline cell and window derivation;
    * ``cell_window(pos, radius, cell) -> (x0, x1, y0, y1)`` — required
      when ``grid_bucketing`` is absent (see module docstring).
    """

    def dist(self, a: Position, b: Position) -> float:
        """Distance between two positions."""
        ...

    def bucket(self, pos: Position, cell: float) -> tuple[int, int]:
        """The 2D integer cell of ``pos``, with the Lipschitz lower bound
        ``dist(a, b) >= (max_axis_cell_diff - 1) * cell``. A space that
        cannot bound distances returns one constant cell, ``(0, 0)``."""
        ...


class _Grid2D:
    """Shared bucketing for 2D coordinate spaces."""

    #: Cells are floor division: the spatial index and the commit derive
    #: cells and windows inline.
    grid_bucketing = True

    @staticmethod
    def bucket(pos, cell: float) -> tuple:
        return (int(pos[0] // cell), int(pos[1] // cell))


class EuclideanSpace(_Grid2D):
    """L2 distance on 2D coordinates (the paper's default)."""

    def dist(self, a, b) -> float:
        return math.hypot(a[0] - b[0], a[1] - b[1])

    def within(self, a, b, radius: float) -> bool:
        dx = a[0] - b[0]
        dy = a[1] - b[1]
        return dx * dx + dy * dy <= radius * radius

    @staticmethod
    def within_mat(dx, dy, radius: float):
        return dx * dx + dy * dy <= radius * radius


class ChebyshevSpace(_Grid2D):
    """L-infinity distance (square perception windows on grids)."""

    def dist(self, a, b) -> float:
        return float(max(abs(a[0] - b[0]), abs(a[1] - b[1])))

    def within(self, a, b, radius: float) -> bool:
        return abs(a[0] - b[0]) <= radius and abs(a[1] - b[1]) <= radius

    @staticmethod
    def within_mat(dx, dy, radius: float):
        return np.maximum(np.abs(dx), np.abs(dy)) <= radius


class ManhattanSpace(_Grid2D):
    """L1 distance (4-connected grid movement)."""

    def dist(self, a, b) -> float:
        return float(abs(a[0] - b[0]) + abs(a[1] - b[1]))

    def within(self, a, b, radius: float) -> bool:
        return abs(a[0] - b[0]) + abs(a[1] - b[1]) <= radius

    @staticmethod
    def within_mat(dx, dy, radius: float):
        return np.abs(dx) + np.abs(dy) <= radius


class GraphSpace:
    """Hop distance on an arbitrary graph (the §6 social-network case).

    Positions are node ids (any hashable). Distances are BFS hop counts;
    nodes in different connected components are at infinite distance
    (they can never couple or block).

    Nodes are **numbered once**: dense ``(id, 0)`` labels (the trace
    position convention) use the id, anything else one dict built at
    construction. Per node index the space records the component
    (:attr:`node_comp`), the node's place in it (:attr:`node_local`,
    BFS discovery order) and, in a numpy table, its landmark levels.
    One resolver (``_level_of``) is where an unknown node is refused, so
    every door — ``dist``, ``dist_within``, ``within``, ``bucket``, the
    dependency graph's constructor and commit — fails the same way.

    Distances come from one of two stores, chosen by component size.
    *Small* components (at most ``SAMPLED_COMPONENT_MIN`` nodes) are
    served by **hop rows**: one BFS per source, stored as a compact
    integer array over the component's local indices
    (:meth:`hop_row`), exact at every cap, so a probe is two list reads
    and one array read. Rows are built lazily and held under
    ``ROW_BUDGET_BYTES``; past it they are dropped wholesale and
    rebuilt on demand — nothing is ordered on the probe path. Larger
    components keep a store of BFS **balls** truncated at the queried
    cap (radius ``inf`` is the whole component, which is what
    :meth:`dist` asks for), under ``BALL_BUDGET_ENTRIES`` with the
    same wholesale drop. :attr:`bfs_runs` counts every BFS either store
    or the landmark build ran — a warm replay runs none.

    Bucketing comes from **landmark BFS levels**: per connected
    component, each axis gets a deterministic *seed set* and every
    node's pair of levels ``(min-dist to seeds0, min-dist to seeds1)``
    serves as integer pseudo-coordinates. Small components use exact
    two-landmark seeds — the first node in insertion order, then the
    farthest node from it (a double BFS sweep). Larger components
    switch to **sampled landmarks**: ``LANDMARK_SAMPLES`` seeds per
    axis, strided deterministically through the component's BFS
    discovery order, so the level build stays two multi-source BFS
    passes (O(edges)) regardless of component size. Either way each
    level function is a min of 1-Lipschitz functions
    (``|d(L, a) - d(L, b)| <= d(a, b)`` by the triangle inequality)
    and therefore 1-Lipschitz itself, so the cells ``level // cell``
    satisfy exactly the lower-bound property the step-bucketed blocker
    index requires — graph worlds ride the same zero-rescan scheduler
    as coordinate grids, including single million-node components.
    Components are kept apart by offsetting the first axis per
    component, which is sound because cross-component distance is
    infinite.
    """

    grid_bucketing = False

    #: Components larger than this use sampled multi-source landmark
    #: seeds and truncated balls; smaller ones keep the exact
    #: first/farthest pair and hop rows.
    SAMPLED_COMPONENT_MIN = 4096

    #: Seeds per axis for sampled components.
    LANDMARK_SAMPLES = 16

    #: Payload bytes of hop rows held at once (a 240-node component's
    #: all-pairs table is 57.6 kB); the store is emptied when the next
    #: row would exceed it.
    ROW_BUDGET_BYTES = 32 << 20

    #: Distance entries held at once by the ball store of large
    #: components, emptied the same way.
    BALL_BUDGET_ENTRIES = 4_000_000

    def __init__(self, adjacency: dict[Hashable, Iterable[Hashable]],
                 sampled_component_min: int | None = None) -> None:
        self._adj = {node: tuple(neigh) for node, neigh in adjacency.items()}
        for node, neigh in self._adj.items():
            for other in neigh:
                if other not in self._adj:
                    raise ConfigError(
                        f"edge {node!r} -> {other!r} references a node "
                        f"missing from the adjacency")
        self._n = len(self._adj)
        self._sampled_min = int(self.SAMPLED_COMPONENT_MIN
                                if sampled_component_min is None
                                else sampled_component_min)
        #: Largest component served by hop rows (two-byte entries).
        self._row_max = min(self._sampled_min, 1 << 16)
        #: BFS runs so far: landmark sweeps, hop rows and balls.
        self.bfs_runs = 0
        #: source node index -> hop row (small components).
        self._rows: dict[int, array] = {}
        self._row_bytes = 0
        #: source node -> (radius, field) (large components).
        self._balls: dict[Hashable, tuple[float, dict[Hashable, int]]] = {}
        self._ball_entries = 0
        #: Memo of :meth:`_level_of` over the per-node tables.
        self._levels: dict[Hashable, tuple[int, int, int]] = {}
        self._build_landmarks()

    # -- construction -------------------------------------------------------

    def _bfs_levels(self, *seeds: Hashable,
                    cap: float = math.inf) -> dict[Hashable, int]:
        """Min-over-seeds BFS levels up to ``cap`` hops, one pass.

        The min of 1-Lipschitz functions is 1-Lipschitz, so sampled
        multi-seed levels satisfy the same ``(dc - 1) * cell`` lower
        bound as exact single-landmark levels.
        """
        self.bfs_runs += 1
        dist = dict.fromkeys(seeds, 0)
        queue = deque(dist)
        adj = self._adj
        while queue:
            node = queue.popleft()
            base = dist[node] + 1
            if base > cap:
                break  # BFS order: nothing left in the queue is nearer
            for neigh in adj[node]:
                if neigh not in dist:
                    dist[neigh] = base
                    queue.append(neigh)
        return dist

    def _dense_id_rows(self) -> int:
        """Rows for an id-indexed node table (0 = not dense-eligible).

        Dense numbering requires every node to follow the trace position
        convention — a ``(id, 0)`` pair with a reasonably dense
        non-negative int id.
        """
        hi = -1
        for node in self._adj:
            if (not isinstance(node, tuple) or len(node) != 2
                    or node[1] != 0 or isinstance(node[0], bool)
                    or not isinstance(node[0], int) or node[0] < 0):
                return 0
            if node[0] > hi:
                hi = node[0]
        if hi < 0 or hi >= 4 * self._n + 64:
            return 0
        return hi + 1

    def _build_landmarks(self) -> None:
        """Node numbering, components and landmark levels.

        Deterministic: components follow the adjacency's insertion
        order. Small components take the exact double BFS sweep (first
        node, then the first BFS-discovered node at maximum level from
        it); components above ``sampled_component_min`` switch to
        strided samples of the BFS discovery order (axis 1 keeps the
        farthest node as its lead seed so the two axes stay
        de-correlated). Levels go straight into the numpy table — no
        per-node tuple — which is what keeps a single million-node
        component within memory budget.
        """
        rows = self._dense_id_rows()
        #: True when node ids index the tables directly, which is what
        #: :meth:`bucket_mat` and :meth:`components_of` need.
        self.dense_node_cells = rows > 0
        #: node -> index and its inverse; ``None`` under dense ids,
        #: where ``_index_of`` just reads the id.
        self._index: dict[Hashable, int] | None = None
        self._index_of = itemgetter(0)
        if not rows:
            self._nodes = list(self._adj)
            self._index = {node: i for i, node in enumerate(self._nodes)}
            self._index_of = self._index.__getitem__
            rows = self._n
        #: (level to seeds0, level to seeds1, component) per node index;
        #: -1 = id not in the graph.
        self._larr = larr = np.full((rows, 3), -1, dtype=np.int64)
        #: Component per node index (-1 = id not in the graph), and the
        #: node's index within a small component's hop rows.
        self.node_comp: list[int] = [-1] * rows
        self.node_local: list[int] = [0] * rows
        node_comp, node_local = self.node_comp, self.node_local
        #: Node count per component (landmark construction order).
        self._comp_sizes: list[int] = []
        comp = 0
        seen: set[Hashable] = set()
        for node in self._adj:
            if node in seen:
                continue
            levels0 = self._bfs_levels(node)
            members = list(levels0)  # BFS discovery order
            far = max(levels0, key=levels0.get)  # first max in that order
            count = len(members)
            self._comp_sizes.append(count)
            ids = list(map(self._index_of, members))
            if count <= self._sampled_min:
                levels1 = self._bfs_levels(far)
                for k, i in enumerate(ids):
                    node_local[i] = k
            else:
                k = self.LANDMARK_SAMPLES
                stride = max(1, count // k)
                levels0 = self._bfs_levels(*members[::stride][:k])
                levels1 = self._bfs_levels(
                    far, *members[stride // 2::stride][:k - 1])
            for i in ids:
                node_comp[i] = comp
            larr[ids, 0] = np.fromiter(map(levels0.__getitem__, members),
                                       dtype=np.int64, count=count)
            larr[ids, 1] = np.fromiter(map(levels1.__getitem__, members),
                                       dtype=np.int64, count=count)
            larr[ids, 2] = comp
            seen.update(members)
            comp += 1

    def node_index(self, pos: Hashable) -> int:
        """The node's index into :attr:`node_comp` / :attr:`node_local`.

        Raises :class:`ConfigError` naming the node when it is not in
        the adjacency.
        """
        return self._level_of(pos)[3]

    def bucket_mat(self, node_ids: np.ndarray, cell: float
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`bucket` over an int array of node ids.

        Returns the two cell-coordinate columns for ``(id, 0)``
        positions; exact elementwise match with the scalar
        :meth:`bucket`. Only available when ``dense_node_cells``.
        """
        nodes = np.asarray(node_ids)
        comp = self.components_of(nodes)  # refuses unknown ids
        la = self._larr[nodes]
        span = self._span(cell)
        b0 = comp * span + np.floor_divide(la[:, 0], cell).astype(np.int64)
        b1 = np.floor_divide(la[:, 1], cell).astype(np.int64)
        return b0, b1

    def _level_of(self, pos: Hashable) -> tuple[int, int, int, int, int]:
        """``(level0, level1, component, node index, local index)``.

        The one place a position is resolved — and an unknown node
        refused — memoised per position: scan loops and the world
        model's perception re-query the same occupied nodes constantly.
        """
        level = self._levels.get(pos)
        if level is None:
            if self._index is not None:
                i = self._index.get(pos)
            else:
                i = int(pos[0]) if pos in self._adj else None
            if i is None:
                raise ConfigError(f"unknown node {pos!r}")
            level = (*self._larr[i].tolist(), i, self.node_local[i])
            # Bounded, so a million-node sweep cannot grow it without
            # limit.
            levels = self._levels
            if len(levels) >= 1_000_000:
                levels.clear()
            levels[pos] = level
        return level

    def component_of(self, pos: Hashable) -> int:
        """Connected-component index of a node (shard planning hook).

        Agents can never leave their start component (movement is along
        edges), so a partition of components is a sound region
        partition for the sharded controller.
        """
        return self._level_of(pos)[2]

    def components_of(self, node_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`component_of` over dense ``(id, 0)`` ids.

        Only available when ``dense_node_cells``; the shard planner
        uses it to classify a million agents in one indexed read.
        """
        nodes = np.asarray(node_ids)
        n_rows = len(self._larr)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= n_rows):
            bad = nodes[(nodes < 0) | (nodes >= n_rows)][0]
            raise ConfigError(f"unknown node {(int(bad), 0)!r}")
        comp = self._larr[nodes, 2]
        if nodes.size and comp.min() < 0:
            bad = nodes[comp < 0][0]
            raise ConfigError(f"unknown node {(int(bad), 0)!r}")
        return comp

    # -- metric -------------------------------------------------------------

    def hop_row(self, i: int) -> "array | None":
        """Hop counts from node index ``i`` to its whole component.

        Indexed by :attr:`node_local`, so only meaningful for a node of
        the same :attr:`node_comp`. ``None`` when the component is above
        the size constant (ask :meth:`dist_within`). Callers may hold a
        row across later calls: rows are never mutated, only dropped.
        """
        row = self._rows.get(i)
        if row is None:
            size = self._comp_sizes[self.node_comp[i]]
            if size > self._row_max:
                return None
            # Hops within a component are below its size: a byte holds
            # them up to 256 nodes, two bytes up to ``_row_max`` (an
            # entry that did not fit would raise, never clamp).
            row = array("B" if size <= 256 else "H", [0]) * size
            held = size * row.itemsize
            local = self.node_local
            field = self._bfs_levels(
                (i, 0) if self._index is None else self._nodes[i])
            for k, hops in zip(map(self._index_of, field), field.values()):
                row[local[k]] = hops
            if self._row_bytes + held > self.ROW_BUDGET_BYTES:
                self._rows.clear()
                self._row_bytes = 0
            self._rows[i] = row
            self._row_bytes += held
        return row

    def _ball(self, a: Hashable, cap: float) -> dict[Hashable, int]:
        """BFS field around ``a``, complete to at least ``cap`` hops."""
        ent = self._balls.get(a)
        if ent is not None:
            if cap <= ent[0]:
                return ent[1]
            self._ball_entries -= len(ent[1])  # widened below
        field = self._bfs_levels(a, cap=cap)
        # The deepest node comes last; if its neighbours would still be
        # within the cap the BFS ran the component dry.
        radius = math.inf if field[next(reversed(field))] + 1 <= cap else cap
        if self._ball_entries + len(field) > self.BALL_BUDGET_ENTRIES:
            self._balls.clear()
            self._ball_entries = 0
        self._balls[a] = (radius, field)
        self._ball_entries += len(field)
        return field

    def dist_within(self, a, b, cap: float = math.inf) -> float:
        """``dist(a, b)`` when it is at most ``cap``, else anything
        above ``cap``.

        A hop row answers exactly at every cap, so the value beyond
        ``cap`` may be the true distance rather than ``inf``; a
        truncated ball answers ``inf`` there. Callers compare against
        thresholds of at most ``cap`` and treat the two alike.
        """
        levels = self._levels  # memo hits skip the call
        la = levels.get(a) or self._level_of(a)
        lb = levels.get(b) or self._level_of(b)
        if la[2] != lb[2]:
            return math.inf
        row = self._rows.get(la[3]) or self.hop_row(la[3])
        if row is not None:
            return float(row[lb[4]])
        return float(self._ball(a, cap).get(b, math.inf))

    #: The hop distance itself is the uncapped read (the world model
    #: calls it per perceived pair: no forwarding call).
    dist = dist_within

    def within(self, a, b, radius: float) -> bool:
        la = self._level_of(a)
        lb = self._level_of(b)
        if (la[2] != lb[2] or abs(la[0] - lb[0]) > radius
                or abs(la[1] - lb[1]) > radius):
            return False  # other component, or the levels certify dist > r
        return self.dist_within(a, b, radius) <= radius

    # -- bucketing ----------------------------------------------------------

    def _span(self, cell: float) -> int:
        """Cells per component band on the offset axis (levels < n)."""
        return int(self._n / cell) + 2

    def bucket(self, pos, cell: float) -> tuple:
        l0, l1, comp = self._level_of(pos)[:3]
        return (comp * self._span(cell) + int(l0 // cell), int(l1 // cell))

    def cell_window(self, pos, radius: float,
                    cell: float) -> tuple[int, int, int, int]:
        """Inclusive cell ranges ``(x0, x1, y0, y1)`` that may hold
        positions within ``radius``, walked first axis outer."""
        l0, l1, comp = self._level_of(pos)[:3]
        span = self._span(cell)
        base = comp * span
        # Anything within `radius` shares the component, so only this
        # component's band is covered; level windows clamp to the band.
        return (base + max(0, int((l0 - radius) // cell)),
                base + min(span - 2, int((l0 + radius) // cell)),
                max(0, int((l1 - radius) // cell)),
                min(span - 2, int((l1 + radius) // cell)))


def space_for(metric: str, **kwargs) -> Space:
    """Factory keyed by :attr:`DependencyConfig.metric`.

    ``metric="graph"`` requires ``adjacency=...``.
    """
    if metric == "euclidean":
        return EuclideanSpace()
    if metric == "chebyshev":
        return ChebyshevSpace()
    if metric == "manhattan":
        return ManhattanSpace()
    if metric == "graph":
        adjacency = kwargs.get("adjacency")
        if adjacency is None:
            raise ConfigError("graph metric requires adjacency=...")
        return GraphSpace(adjacency)
    raise ConfigError(f"unknown metric {metric!r}")
