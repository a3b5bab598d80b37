"""Distance spaces for the dependency rules.

The paper derives its rules for Euclidean distance but notes (§6) that
they extend to any space with a notion of distance bounding information
propagation — e.g. hop distance in a social network. Everything in
:mod:`repro.core` works against this small protocol.

Every space answers with **cells**: :meth:`Space.bucket` returns 2D
*integer cells whose per-axis difference lower-bounds the true
distance* (cells ``k`` and ``k + dc`` on any axis imply
``dist >= (dc - 1) * cell``). This is the only property the
step-bucketed blocker index and the slack/near machinery in
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
import operator
from array import array
from collections import deque
from typing import Hashable, Iterable, Protocol

import numpy as np

from ..errors import ConfigError

Position = Hashable


class Space(Protocol):
    """A metric over agent positions.

    Spaces may additionally provide optional performance hooks the
    :class:`~repro.core.clustering.SpatialIndex` and the dependency
    graph exploit:

    * ``within(a, b, radius) -> bool`` — radius membership without
      computing the distance itself (Euclidean skips the sqrt);
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


class ChebyshevSpace(_Grid2D):
    """L-infinity distance (square perception windows on grids)."""

    def dist(self, a, b) -> float:
        return float(max(abs(a[0] - b[0]), abs(a[1] - b[1])))

    def within(self, a, b, radius: float) -> bool:
        return abs(a[0] - b[0]) <= radius and abs(a[1] - b[1]) <= radius


class ManhattanSpace(_Grid2D):
    """L1 distance (4-connected grid movement)."""

    def dist(self, a, b) -> float:
        return float(abs(a[0] - b[0]) + abs(a[1] - b[1]))

    def within(self, a, b, radius: float) -> bool:
        return abs(a[0] - b[0]) + abs(a[1] - b[1]) <= radius


class _Tile:
    """One graph's tables, built once and shared by every space laid
    over it (see :class:`GraphSpace`).

    Nodes are **numbered once**: dense ``(id, 0)`` labels (the trace
    position convention) use the id, anything else one dict built here.
    Per tile index the tile records its landmark levels, its component
    (-1 = no node has that id) and its place in the component (BFS
    discovery order). The hop rows live here too, keyed by tile source,
    so every copy of the tile reads the same rows.
    """

    def __init__(self, adjacency: dict[Hashable, Iterable[Hashable]]) -> None:
        self.adj = {node: tuple(neigh) for node, neigh in adjacency.items()}
        for node, neigh in self.adj.items():
            for other in neigh:
                if other not in self.adj:
                    raise ConfigError(
                        f"edge {node!r} -> {other!r} references a node "
                        f"missing from the adjacency")
        self.n = len(self.adj)
        #: BFS runs so far: landmark sweeps and hop rows.
        self.bfs_runs = 0
        #: tile source index -> hop row, and the rows' payload bytes.
        self.rows: dict[int, array] = {}
        self.row_bytes = 0
        size = self._dense_id_rows()
        #: True when node ids are tile indices (``(id, 0)`` labels).
        self.dense = size > 0
        #: node -> index and its inverse; ``None`` under dense ids,
        #: where ``index_of`` just reads the id.
        self.index: dict[Hashable, int] | None = None
        self.index_of = operator.itemgetter(0)
        if not size:
            self.nodes = list(self.adj)
            self.index = {node: i for i, node in enumerate(self.nodes)}
            self.index_of = self.index.__getitem__
            size = self.n
        #: Tile indices: ids ``0 .. size - 1``.
        self.size = size
        #: (level to landmark 0, level to landmark 1) per tile index.
        self.levels = np.full((size, 2), -1, dtype=np.int64)
        #: Component per tile index (-1 = id not in the graph).
        self.comp = np.full(size, -1, dtype=np.int64)
        #: The node's index within its component's hop rows, per tile
        #: index, in the smallest unsigned code that holds the tile.
        self.local = array("B" if self.n <= 256 else
                           "H" if self.n <= 1 << 16 else "I", [0]) * size
        #: Node count per component (landmark construction order).
        self.comp_sizes: list[int] = []
        self._build_landmarks()

    def _bfs_levels(self, seed: Hashable) -> dict[Hashable, int]:
        """Hop counts from ``seed`` to its whole component, in BFS
        discovery order."""
        self.bfs_runs += 1
        dist = {seed: 0}
        queue = deque(dist)
        adj = self.adj
        while queue:
            node = queue.popleft()
            base = dist[node] + 1
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
        for node in self.adj:
            if (not isinstance(node, tuple) or len(node) != 2
                    or node[1] != 0 or isinstance(node[0], bool)
                    or not isinstance(node[0], int) or node[0] < 0):
                return 0
            if node[0] > hi:
                hi = node[0]
        if hi < 0 or hi >= 4 * self.n + 64:
            return 0
        return hi + 1

    def _build_landmarks(self) -> None:
        """Components, local order and landmark levels.

        Deterministic: components follow the adjacency's insertion
        order, and each takes the double BFS sweep (first node, then
        the first BFS-discovered node at maximum level from it). Levels
        go straight into the numpy table — no per-node tuple.
        """
        seen: set[Hashable] = set()
        for node in self.adj:
            if node in seen:
                continue
            levels0 = self._bfs_levels(node)
            members = list(levels0)  # BFS discovery order
            far = max(levels0, key=levels0.get)  # first max in that order
            levels1 = self._bfs_levels(far)
            count = len(members)
            ids = list(map(self.index_of, members))
            self.comp[ids] = len(self.comp_sizes)
            for k, i in enumerate(ids):
                self.local[i] = k
            self.levels[ids, 0] = np.fromiter(
                map(levels0.__getitem__, members), dtype=np.int64,
                count=count)
            self.levels[ids, 1] = np.fromiter(
                map(levels1.__getitem__, members), dtype=np.int64,
                count=count)
            self.comp_sizes.append(count)
            seen.update(members)

    def row_from(self, src: int) -> array:
        """Hop counts from tile index ``src`` to its whole component,
        indexed by local order (one BFS)."""
        size = self.comp_sizes[self.comp[src]]
        # Hops within a component are below its size: a byte holds
        # them up to 256 nodes, two bytes up to 65,536, four above
        # (an entry that did not fit would raise, never clamp).
        code = "B" if size <= 256 else "H" if size <= 1 << 16 else "I"
        row = array(code, [0]) * size
        local = self.local
        field = self._bfs_levels(
            (src, 0) if self.index is None else self.nodes[src])
        for k, hops in zip(map(self.index_of, field), field.values()):
            row[local[k]] = hops
        return row


class GraphSpace:
    """Hop distance on a graph laid out as ``copies`` copies of one tile
    (the §6 social-network case; §4.3's side-by-side segments).

    Positions are node ids (any hashable). Distances are BFS hop counts;
    nodes in different connected components are at infinite distance
    (they can never couple or block). ``GraphSpace(adjacency)`` is one
    copy of ``adjacency``; :meth:`tiled` lays ``copies`` disjoint copies
    of a built space's dense ``(id, 0)`` graph side by side, sharing its
    tile: node ``(k * stride + r, 0)`` is node ``(r, 0)`` of copy ``k``.
    Copies never touch, so this equals the space over the union
    adjacency — same distances, components, cells and node indices — at
    the cost of one copy.

    **The tile's tables are built once** (:class:`_Tile`): adjacency,
    numbering, landmark levels, components, local order and hop rows.
    Per global node the space keeps two compact columns the dependency
    graph indexes: :attr:`node_comp` (component, offset by copy; -1 = no
    such node) and :attr:`node_local` (the node's place in its
    component), ``array`` columns, one int and one small int per id.
    One resolver (``_level_of``) is where an unknown node is refused, so
    every door — ``dist``, ``within``, ``bucket``, the dependency
    graph's constructor and commit — fails the same way.

    Distances come from one store, **hop rows**: one BFS per tile
    source, stored as a compact integer array over the source's
    component (indexed by :attr:`node_local`, see :meth:`hop_row`) and
    shared by every copy, so a probe is two memo reads and one array
    read. Entries widen with the component (one byte up to 256 nodes,
    two up to 65,536, four above), so no hop count is ever clamped.
    Rows are built lazily and held under ``ROW_BUDGET_BYTES``; past it
    they are dropped wholesale and rebuilt on demand — nothing is
    ordered on the probe path. :attr:`bfs_runs` counts every BFS the
    rows or the landmark build ran: at most two per tile component plus
    one per tile node, whatever the copy count; a warm replay runs
    none. The price of one store: a single component of 10⁵ nodes or
    more costs one full-component BFS and one row per source. No
    scenario, bench cell or example builds one (``social-graph`` is
    copies of one 240-node ring at every size); a world that does must
    bring its own gated cell before a bounded store comes back.

    Bucketing comes from **landmark BFS levels**: per connected
    component, the first node in insertion order and the farthest node
    from it (a double BFS sweep) are the two landmarks, and every
    node's pair of levels ``(dist to landmark 0, dist to landmark 1)``
    serves as integer pseudo-coordinates. Each level function is
    1-Lipschitz (``|d(L, a) - d(L, b)| <= d(a, b)`` by the triangle
    inequality), so the cells ``level // cell`` satisfy exactly the
    lower-bound property the step-bucketed blocker index requires —
    graph worlds ride the same zero-rescan scheduler as coordinate
    grids. Components are kept apart by offsetting the first axis per
    component, which is sound because cross-component distance is
    infinite; the band's span counts every copy's nodes, as the union
    space's would.
    """

    grid_bucketing = False

    #: Payload bytes of hop rows held at once (a 240-node component's
    #: all-pairs table is 57.6 kB); the store is emptied when the next
    #: row would exceed it.
    ROW_BUDGET_BYTES = 32 << 20

    def __init__(self, adjacency: dict[Hashable, Iterable[Hashable]]) -> None:
        tile = _Tile(adjacency)
        self._lay_out(tile, 1, tile.size)

    def tiled(self, copies: int, stride: int) -> GraphSpace:
        """``copies`` copies of this space's tile at ``stride``, sharing
        its tables and hop rows."""
        space = GraphSpace.__new__(GraphSpace)
        space._lay_out(self._tile, copies, stride)
        return space

    def _lay_out(self, tile: _Tile, copies: int, stride: int) -> None:
        """The per-node columns of ``copies`` copies of ``tile``."""
        if copies < 1:
            raise ConfigError(f"a graph space needs a copy, got {copies}")
        if (copies > 1 or stride != tile.size) and not tile.dense:
            raise ConfigError("copies of a graph need dense (id, 0) node "
                              "ids")
        if stride < tile.size:
            raise ConfigError(f"stride {stride} is below the tile's "
                              f"{tile.size} ids")
        self._tile = tile
        self.copies = copies
        self.stride = stride
        #: True when node ids index the tables directly, which is what
        #: :meth:`bucket_mat` and :meth:`components_of` need.
        self.dense_node_cells = tile.dense
        #: Nodes over every copy: the band span counts them all.
        self._n = copies * tile.n
        self._rows = tile.rows
        #: Component per node index (-1 = id not in the graph), and the
        #: node's index within its component's hop rows.
        self.node_comp = array("i", [-1]) * (copies * stride)
        self._comp_col = np.frombuffer(self.node_comp, dtype=np.intc)
        known = np.flatnonzero(tile.comp >= 0)
        # Copy k's components follow copy k - 1's, as in the union.
        offsets = np.arange(copies, dtype=np.intc)[:, None] \
            * len(tile.comp_sizes)
        self._comp_col.reshape(copies, stride)[:, known] = \
            tile.comp[known].astype(np.intc) + offsets
        gap = array(tile.local.typecode, [0]) * (stride - tile.size)
        self.node_local = (tile.local + gap) * copies
        #: Memo of :meth:`_level_of`, filled as positions are asked for.
        self._levels: dict[Hashable, tuple[int, ...]] = {}

    @property
    def bfs_runs(self) -> int:
        """BFS runs of the tile so far: landmark sweeps and hop rows."""
        return self._tile.bfs_runs

    @property
    def table_bytes(self) -> int:
        """Payload bytes of the space's tables: the two per-node columns,
        the tile's level, component and local columns, and the hop rows
        held (Python dicts — the tile's adjacency, the memo — left out)."""
        tile = self._tile
        return (self._comp_col.nbytes
                + len(self.node_local) * self.node_local.itemsize
                + tile.levels.nbytes + tile.comp.nbytes
                + len(tile.local) * tile.local.itemsize + tile.row_bytes)

    # -- numbering ----------------------------------------------------------

    def node_index(self, pos: Hashable) -> int:
        """The node's index into :attr:`node_comp` / :attr:`node_local`.

        Raises :class:`ConfigError` naming the node when it is not in
        the graph.
        """
        return self._level_of(pos)[5]

    def _dense_id(self, pos) -> int | None:
        """The id of a ``(id, 0)`` node of some copy, else ``None``."""
        if (isinstance(pos, tuple) and len(pos) == 2 and pos[1] == 0
                and not isinstance(pos[0], bool)):
            try:
                i = operator.index(pos[0])
            except TypeError:
                return None
            if 0 <= i < len(self.node_comp) and self.node_comp[i] >= 0:
                return i
        return None

    def _level_of(self, pos: Hashable) -> tuple[int, int, int, int, int, int]:
        """``(level0, level1, component, tile source, local index, node
        index)``.

        The one place a position is resolved — and an unknown node
        refused — memoised per position: scan loops and the world
        model's perception re-query the same occupied nodes constantly.
        """
        level = self._levels.get(pos)
        if level is None:
            tile = self._tile
            if tile.index is not None:
                i = tile.index.get(pos)
            else:
                i = self._dense_id(pos)
            if i is None:
                raise ConfigError(f"unknown node {pos!r}")
            src = i % self.stride
            level = (*tile.levels[src].tolist(), self.node_comp[i], src,
                     self.node_local[i], i)
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
        col = self._comp_col
        if nodes.size and (nodes.min() < 0 or nodes.max() >= len(col)):
            bad = nodes[(nodes < 0) | (nodes >= len(col))][0]
            raise ConfigError(f"unknown node {(int(bad), 0)!r}")
        comp = col[nodes].astype(np.int64)
        if nodes.size and comp.min() < 0:
            bad = nodes[comp < 0][0]
            raise ConfigError(f"unknown node {(int(bad), 0)!r}")
        return comp

    def bucket_mat(self, node_ids: np.ndarray, cell: float
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`bucket` over an int array of node ids.

        Returns the two cell-coordinate columns for ``(id, 0)``
        positions; exact elementwise match with the scalar
        :meth:`bucket`. Only available when ``dense_node_cells``.
        """
        nodes = np.asarray(node_ids)
        comp = self.components_of(nodes)  # refuses unknown ids
        la = self._tile.levels[nodes % self.stride]
        span = self._span(cell)
        b0 = comp * span + np.floor_divide(la[:, 0], cell).astype(np.int64)
        b1 = np.floor_divide(la[:, 1], cell).astype(np.int64)
        return b0, b1

    # -- metric -------------------------------------------------------------

    def hop_row(self, i: int) -> array:
        """Hop counts from node index ``i`` to its whole component.

        Indexed by :attr:`node_local`, so only meaningful for a node of
        the same :attr:`node_comp`. Every copy of a tile source reads
        the same row. Callers may hold a row across later calls: rows
        are never mutated, only dropped.
        """
        src = i % self.stride
        rows = self._rows
        row = rows.get(src)
        if row is None:
            tile = self._tile
            row = tile.row_from(src)
            held = len(row) * row.itemsize
            if tile.row_bytes + held > self.ROW_BUDGET_BYTES:
                rows.clear()
                tile.row_bytes = 0
            rows[src] = row
            tile.row_bytes += held
        return row

    def dist(self, a, b) -> float:
        """Hop distance, one hop-row read (the world model calls it per
        perceived pair)."""
        levels = self._levels  # memo hits skip the call
        la = levels.get(a) or self._level_of(a)
        lb = levels.get(b) or self._level_of(b)
        if la[2] != lb[2]:
            return math.inf
        row = self._rows.get(la[3]) or self.hop_row(la[5])
        return float(row[lb[4]])

    def within(self, a, b, radius: float) -> bool:
        levels = self._levels  # as in dist: memo hits skip calls
        la = levels.get(a) or self._level_of(a)
        lb = levels.get(b) or self._level_of(b)
        if (la[2] != lb[2] or abs(la[0] - lb[0]) > radius
                or abs(la[1] - lb[1]) > radius):
            return False  # other component, or the levels certify dist > r
        row = self._rows.get(la[3]) or self.hop_row(la[5])
        return row[lb[4]] <= radius

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
