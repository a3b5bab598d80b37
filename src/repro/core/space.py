"""Distance spaces for the dependency rules.

The paper derives its rules for Euclidean distance but notes (§6) that
they extend to any space with a notion of distance bounding information
propagation — e.g. hop distance in a social network. Everything in
:mod:`repro.core` works against this small protocol.

Two capability flags let the scheduler pick its fast paths per space:

* ``grid_bucketing`` — positions are 2D numeric coordinates and
  :meth:`Space.bucket` is plain floor division, so the spatial index and
  the dependency graph's commit can derive cells inline and walk
  coordinate windows;
* ``cell_bucketing`` — :meth:`Space.bucket` returns 2D *integer cells
  whose per-axis difference lower-bounds the true distance* (cells ``k``
  and ``k + dc`` on any axis imply ``dist >= (dc - 1) * cell``). This is
  the only property the step-bucketed blocker index and the slack/near/
  wake machinery in :mod:`repro.core.dependency_graph` need, so any
  space providing it — coordinate grids trivially, :class:`GraphSpace`
  via landmark BFS levels — gets the zero-rescan scheduler instead of
  the linear fallback scan.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
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
      floor-division cells, enabling inline cell derivation and
      coordinate cell-window walks;
    * ``cell_bucketing = True`` — declares that :meth:`bucket` returns
      2D integer cells satisfying the Lipschitz lower bound
      ``dist(a, b) >= (max_axis_cell_diff - 1) * cell``, enabling the
      step-bucketed blocker index (see module docstring).
    """

    def dist(self, a: Position, b: Position) -> float:
        """Distance between two positions."""
        ...

    def bucket(self, pos: Position, cell: float) -> tuple:
        """A coarse hash cell for ``pos`` used by the spatial index, such
        that positions within distance ``d`` are within
        ``ceil(d / cell)`` cells of each other in every axis. Spaces that
        cannot offer this return ``()`` (forcing linear scans)."""
        ...

    def bucket_range(self, pos: Position, radius: float,
                     cell: float) -> Iterable[tuple]:
        """All cells that may contain positions within ``radius``."""
        ...


class _Grid2D:
    """Shared bucketing for 2D coordinate spaces."""

    #: Cells are 2D integer coordinates: the spatial index may walk a
    #: precomputed neighbor-offset stencil instead of ``bucket_range``.
    grid_bucketing = True
    #: Coordinate cells trivially satisfy the Lipschitz lower bound the
    #: step-bucketed blocker index needs.
    cell_bucketing = True

    @staticmethod
    def bucket(pos, cell: float) -> tuple:
        return (int(pos[0] // cell), int(pos[1] // cell))

    @staticmethod
    def bucket_range(pos, radius: float, cell: float):
        span = int(math.ceil(radius / cell))
        cx, cy = int(pos[0] // cell), int(pos[1] // cell)
        for dx in range(-span, span + 1):
            for dy in range(-span, span + 1):
                yield (cx + dx, cy + dy)


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

    Positions are node ids (any hashable). Distances are BFS hop counts,
    cached per source; nodes in different connected components are at
    infinite distance (they can never couple or block).

    Bucketing comes from **landmark BFS levels**: per connected
    component, each axis gets a deterministic *seed set* and every
    node's pair of levels ``(min-dist to seeds0, min-dist to seeds1)``
    serves as integer pseudo-coordinates. Small components (at most
    ``SAMPLED_COMPONENT_MIN`` nodes) use exact two-landmark seeds —
    the first node in insertion order, then the farthest node from it
    (a double BFS sweep). Larger components switch to **sampled
    landmarks**: ``LANDMARK_SAMPLES`` seeds per axis, strided
    deterministically through the component's BFS discovery order, so
    the level build stays two multi-source BFS passes (O(edges))
    regardless of component size. Either way each level function is a
    min of 1-Lipschitz functions (``|d(L, a) - d(L, b)| <= d(a, b)``
    by the triangle inequality) and therefore 1-Lipschitz itself, so
    the cells ``level // cell`` satisfy exactly the lower-bound
    property (``cell_bucketing``) the step-bucketed blocker index
    requires — graph worlds ride the same zero-rescan scheduler as
    coordinate grids, including single million-node components.
    Components are kept apart by offsetting the first axis per
    component, which is sound because cross-component distance is
    infinite. Nodes following the dense ``(id, 0)`` trace convention
    store their levels only in an id-indexed numpy table (no per-node
    dict of tuples — the memory that matters at 1M nodes). Construct
    with ``bucketing=False`` to force the legacy single-bucket linear
    scans (the conservative reference path the fuzz tests compare
    against).
    """

    grid_bucketing = False

    #: Default bound on the per-source BFS distance cache (sources kept
    #: live at once; an LRU so million-node graphs cannot accumulate one
    #: full distance field per node ever queried).
    DIST_CACHE_SIZE = 4096

    #: Total cached distance *entries* across sources: the effective
    #: source cap is ``min(DIST_CACHE_SIZE, DIST_CACHE_ENTRIES // n)``,
    #: so a 240-node world keeps thousands of fields while a
    #: million-node one keeps a handful — memory stays bounded either
    #: way. Hot-path distance checks use :meth:`dist_within` (bounded
    #: BFS) and rarely touch full fields on large graphs.
    DIST_CACHE_ENTRIES = 4_000_000

    #: Components larger than this use sampled multi-source landmark
    #: seeds; smaller ones keep the exact first/farthest pair.
    SAMPLED_COMPONENT_MIN = 4096

    #: Seeds per axis for sampled components.
    LANDMARK_SAMPLES = 16

    def __init__(self, adjacency: dict[Hashable, Iterable[Hashable]],
                 bucketing: bool = True,
                 dist_cache_size: int | None = None,
                 sampled_component_min: int | None = None) -> None:
        self._adj = {node: tuple(neigh) for node, neigh in adjacency.items()}
        for node, neigh in self._adj.items():
            for other in neigh:
                if other not in self._adj:
                    raise ConfigError(
                        f"edge {node!r} -> {other!r} references a node "
                        f"missing from the adjacency")
        self._n = len(self._adj)
        #: LRU of per-source BFS distance fields, bounded so memory
        #: stays O(cache_size * n) regardless of how many distinct
        #: sources the scheduler touches over a long run.
        self._cache: "OrderedDict[Hashable, dict[Hashable, int]]" = \
            OrderedDict()
        if dist_cache_size is not None:
            self._cache_cap = max(1, int(dist_cache_size))
        else:
            # Refined after landmark construction: a full BFS field is
            # component-local, so the entry budget divides by the
            # largest field actually cached — not by n (a 20k-node
            # world of 240-node components keeps thousands of fields
            # in the same memory one 20k-node field would take).
            self._cache_cap = self.DIST_CACHE_SIZE
        self._sampled_min = int(self.SAMPLED_COMPONENT_MIN
                                if sampled_component_min is None
                                else sampled_component_min)
        #: One-slot memo for consecutive same-source distance lookups.
        self._last_src: Hashable = object()
        self._last_field: dict[Hashable, int] = {}
        #: LRU of radius-bounded BFS balls for :meth:`dist_within`,
        #: source -> (radius, field). Balls are O(local neighborhood)
        #: — independent of component size — so the cache holds
        #: thousands of live sources where full fields would thrash;
        #: eviction is by total stored entries, not source count, so
        #: memory stays bounded whatever the ball sizes are.
        self._balls: \
            "OrderedDict[Hashable, tuple[float, dict[Hashable, int]]]" \
            = OrderedDict()
        self._ball_entries = 0
        #: Adaptive full-field mode for the ball cache. Small
        #: components start with whole-component fields (one BFS serves
        #: every later cap). If the *live* source population outruns
        #: the entry budget the LRU would cycle — every probe a fresh
        #: BFS — which is detected by counting evictions of full
        #: fields: once more full fields were evicted than the cache
        #: holds, demote to radius-capped balls for good.
        self._ball_full_ok = True
        self._full_evicts = 0
        #: One-slot alias of the most recently used ball: scan loops
        #: probe many targets from one source at one cap back-to-back.
        self._bnd_src: Hashable = object()
        self._bnd_cap: float = -1.0
        self._bnd_field: dict[Hashable, int] = {}
        #: node -> (level to seeds0, level to seeds1, component index)
        #: for non-dense node labels; dense ``(id, 0)`` nodes live only
        #: in ``_larr`` (row ``id`` holds (l0, l1, comp), -1 = unknown),
        #: which also serves the vectorized :meth:`bucket_mat`.
        self._levels: dict[Hashable, tuple[int, int, int]] = {}
        self._larr: np.ndarray | None = None
        #: Node count per component (landmark construction order) —
        #: :meth:`dist_within` sizes its ball-vs-full-field choice off
        #: this.
        self._comp_sizes: list[int] = []
        #: Size of the largest small component (exact-landmark regime)
        #: — the largest full BFS field :meth:`dist` will cache, which
        #: sizes the full-field LRU. Defaults to n when components are
        #: unknown.
        self._max_field = self._n
        self._has_levels = False
        self.cell_bucketing = False
        #: True when :meth:`bucket_mat` is usable (dense int node ids).
        self.dense_node_cells = False
        if bucketing and self._adj:
            self._build_landmarks()
            self.cell_bucketing = True
        if dist_cache_size is None:
            self._cache_cap = max(1, min(
                self.DIST_CACHE_SIZE,
                self.DIST_CACHE_ENTRIES // max(1, self._max_field)))

    # -- construction -------------------------------------------------------

    def _bfs_levels(self, source: Hashable) -> dict[Hashable, int]:
        dist = {source: 0}
        queue = deque([source])
        adj = self._adj
        while queue:
            node = queue.popleft()
            base = dist[node] + 1
            for neigh in adj[node]:
                if neigh not in dist:
                    dist[neigh] = base
                    queue.append(neigh)
        return dist

    def _multi_bfs_levels(self, seeds: list[Hashable]
                          ) -> dict[Hashable, int]:
        """Min-over-seeds BFS levels, one multi-source pass.

        The min of 1-Lipschitz functions is 1-Lipschitz, so sampled
        multi-seed levels satisfy the same ``(dc - 1) * cell`` lower
        bound as exact single-landmark levels.
        """
        dist: dict[Hashable, int] = {}
        queue: deque = deque()
        for seed in seeds:
            if seed not in dist:
                dist[seed] = 0
                queue.append(seed)
        adj = self._adj
        while queue:
            node = queue.popleft()
            base = dist[node] + 1
            for neigh in adj[node]:
                if neigh not in dist:
                    dist[neigh] = base
                    queue.append(neigh)
        return dist

    def _dense_id_rows(self) -> int:
        """Rows for the id-indexed level table (0 = not dense-eligible).

        Dense storage requires every node to follow the trace position
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
        """Landmark levels per connected component.

        Deterministic: components follow the adjacency's insertion
        order. Small components take the exact double BFS sweep (first
        node, then the first BFS-discovered node at maximum level from
        it); components above ``sampled_component_min`` switch to
        strided samples of the BFS discovery order (axis 1 keeps the
        farthest node as its lead seed so the two axes stay
        de-correlated). Dense ``(id, 0)`` graphs write levels straight
        into the numpy table — no per-node dict — which is what keeps
        a single million-node component within memory budget.
        """
        dense_rows = self._dense_id_rows()
        larr = np.full((dense_rows, 3), -1, dtype=np.int64) \
            if dense_rows else None
        comp = 0
        small_sizes: list[int] = []
        comp_sizes = self._comp_sizes
        seen: set[Hashable] = set()
        for node in self._adj:
            if node in seen:
                continue
            l0 = self._bfs_levels(node)
            members = list(l0)  # BFS discovery order (insertion order)
            far = max(l0, key=l0.get)  # first max in discovery order
            comp_sizes.append(len(members))
            if len(members) <= self._sampled_min:
                small_sizes.append(len(members))
                levels0 = l0
                levels1 = self._bfs_levels(far)
            else:
                k = self.LANDMARK_SAMPLES
                stride = max(1, len(members) // k)
                seeds0 = members[::stride][:k]
                seeds1 = [far, *members[stride // 2::stride][:k - 1]]
                levels0 = self._multi_bfs_levels(seeds0)
                levels1 = self._multi_bfs_levels(seeds1)
            if larr is not None:
                count = len(levels0)
                ids0 = np.fromiter((m[0] for m in levels0),
                                   dtype=np.int64, count=count)
                larr[ids0, 0] = np.fromiter(levels0.values(),
                                            dtype=np.int64, count=count)
                larr[ids0, 2] = comp
                ids1 = np.fromiter((m[0] for m in levels1),
                                   dtype=np.int64, count=count)
                larr[ids1, 1] = np.fromiter(levels1.values(),
                                            dtype=np.int64, count=count)
            else:
                levels = self._levels
                for member, level in levels0.items():
                    levels[member] = (level, levels1[member], comp)
            seen.update(l0)
            comp += 1
        self._max_field = max(small_sizes) if small_sizes else self._n
        self._ncomp = comp
        self._larr = larr
        self.dense_node_cells = larr is not None
        self._has_levels = True

    def bucket_mat(self, node_ids: np.ndarray, cell: float
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`bucket` over an int array of node ids.

        Returns the two cell-coordinate columns for ``(id, 0)``
        positions; exact elementwise match with the scalar
        :meth:`bucket`. Only available when ``dense_node_cells``.
        """
        nodes = np.asarray(node_ids)
        n_rows = len(self._larr)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= n_rows):
            bad = nodes[(nodes < 0) | (nodes >= n_rows)][0]
            raise ConfigError(f"unknown node {(int(bad), 0)!r}")
        la = self._larr[nodes]
        comp = la[:, 2]
        if comp.min() < 0:
            bad = nodes[comp < 0][0]
            raise ConfigError(f"unknown node {(int(bad), 0)!r}")
        span = self._span(cell)
        b0 = comp * span + np.floor_divide(la[:, 0], cell).astype(np.int64)
        b1 = np.floor_divide(la[:, 1], cell).astype(np.int64)
        return b0, b1

    def _level_of(self, pos: Hashable) -> tuple[int, int, int]:
        level = self._levels.get(pos)
        if level is not None:
            return level
        larr = self._larr
        if (larr is not None and isinstance(pos, tuple) and len(pos) == 2
                and pos[1] == 0 and isinstance(pos[0], int)
                and 0 <= pos[0] < len(larr)):
            row = larr[pos[0]]
            comp = int(row[2])
            if comp >= 0:
                level = (int(row[0]), int(row[1]), comp)
                # Dense graphs keep ``_levels`` as a pure memo over the
                # numpy table (scan loops re-query the same occupied
                # nodes constantly); bound it so a million-node sweep
                # cannot grow it without limit.
                levels = self._levels
                if len(levels) >= 1_000_000:
                    levels.clear()
                levels[pos] = level
                return level
        raise ConfigError(f"unknown node {pos!r}")

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

    def _distances_from(self, source: Hashable) -> dict[Hashable, int]:
        # Scan loops query many targets from one source back-to-back:
        # the one-slot memo skips the LRU bookkeeping entirely there.
        if source == self._last_src:
            return self._last_field
        cache = self._cache
        cached = cache.get(source)
        if cached is not None:
            cache.move_to_end(source)
            self._last_src = source
            self._last_field = cached
            return cached
        if source not in self._adj:
            raise ConfigError(f"unknown node {source!r}")
        ball = self._balls.get(source)
        if ball is not None and ball[0] == math.inf:
            dist = ball[1]  # dist_within already paid for the full field
        else:
            dist = self._bfs_levels(source)
        cache[source] = dist
        if len(cache) > self._cache_cap:
            cache.popitem(last=False)
        self._last_src = source
        self._last_field = dist
        return dist

    def dist(self, a, b) -> float:
        if b not in self._adj:
            raise ConfigError(f"unknown node {b!r}")
        return float(self._distances_from(a).get(b, math.inf))

    def dist_within(self, a, b, cap: float) -> float:
        """``dist(a, b)`` when it is at most ``cap``, else ``inf``.

        Runs a BFS truncated at ``cap`` hops — O(ball(cap)) instead of
        O(component) — backed by a per-source LRU of balls (each stored
        with the radius it was computed at; a larger cap recomputes and
        widens the stored ball). Scan loops alternate among the whole
        live population as sources, so a one-slot memo is not enough:
        the ball cache is what keeps steady-state blocker checks from
        re-running a BFS per probe. Full cached fields are consulted
        first (and may return an exact distance beyond the cap, which
        callers treat the same as ``inf``).
        """
        if b not in self._adj:
            raise ConfigError(f"unknown node {b!r}")
        if a == self._last_src:
            return float(self._last_field.get(b, math.inf))
        cached = self._cache.get(a)
        if cached is not None:
            return float(cached.get(b, math.inf))
        if a == self._bnd_src and cap <= self._bnd_cap:
            return float(self._bnd_field.get(b, math.inf))
        balls = self._balls
        ent = balls.get(a)
        if ent is not None and cap <= ent[0]:
            balls.move_to_end(a)
            self._bnd_src = a
            self._bnd_cap, self._bnd_field = ent
            return float(ent[1].get(b, math.inf))
        if a not in self._adj:
            raise ConfigError(f"unknown node {a!r}")
        if self._has_levels:
            size = self._comp_sizes[self._level_of(a)[2]]
        else:
            size = self._n
        radius = cap
        adj = self._adj
        if self._ball_full_ok and size * size <= self.DIST_CACHE_ENTRIES:
            # A small component's full field serves every later cap from
            # one BFS — growing caps would otherwise force a recompute
            # per growth step. Whether all the *live* sources' fields fit
            # the entry budget together depends on the population, which
            # the space cannot know statically; the eviction counter
            # below demotes to truncated balls when they do not.
            field = self._bfs_levels(a)
            radius = math.inf
        else:
            field = {a: 0}
            queue: deque = deque([a])
            truncated = False
            while queue:
                node = queue.popleft()
                base = field[node] + 1
                if base > cap:
                    truncated = True
                    continue
                for neigh in adj[node]:
                    if neigh not in field:
                        field[neigh] = base
                        queue.append(neigh)
            if not truncated:
                radius = math.inf  # ball covered the whole component
        if ent is not None:
            self._ball_entries -= len(ent[1])
        balls[a] = (radius, field)
        balls.move_to_end(a)
        self._ball_entries += len(field)
        while self._ball_entries > self.DIST_CACHE_ENTRIES and balls:
            _, (old_radius, old) = balls.popitem(last=False)
            self._ball_entries -= len(old)
            if old_radius == math.inf and self._ball_full_ok:
                self._full_evicts += 1
                if self._full_evicts > len(balls):
                    # More full fields evicted than the cache can hold:
                    # the live source set is cycling through the LRU and
                    # each probe pays a whole-component BFS. Radius-capped
                    # balls are cheaper from here on.
                    self._ball_full_ok = False
        self._bnd_src = a
        self._bnd_cap = radius
        self._bnd_field = field
        return float(field.get(b, math.inf))

    def within(self, a, b, radius: float) -> bool:
        if self._has_levels:
            la = self._level_of(a)
            lb = self._level_of(b)
            if la[2] != lb[2]:
                return False  # different components: infinite distance
            if (abs(la[0] - lb[0]) > radius
                    or abs(la[1] - lb[1]) > radius):
                return False  # landmark levels already certify dist > r
        return self.dist_within(a, b, radius) <= radius

    # -- bucketing ----------------------------------------------------------

    def _span(self, cell: float) -> int:
        """Cells per component band on the offset axis (levels < n)."""
        return int(self._n / cell) + 2

    def bucket(self, pos, cell: float) -> tuple:
        if not self._has_levels:
            return ()
        l0, l1, comp = self._level_of(pos)
        return (comp * self._span(cell) + int(l0 // cell), int(l1 // cell))

    def bucket_range(self, pos, radius: float, cell: float):
        if not self._has_levels:
            yield ()
            return
        l0, l1, comp = self._level_of(pos)
        span = self._span(cell)
        base = comp * span
        # Anything within `radius` shares the component, so only this
        # component's band is yielded; level windows clamp to the band.
        b0_lo = max(0, int((l0 - radius) // cell))
        b0_hi = min(span - 2, int((l0 + radius) // cell))
        b1_lo = max(0, int((l1 - radius) // cell))
        b1_hi = min(span - 2, int((l1 + radius) // cell))
        for b0 in range(b0_lo, b0_hi + 1):
            for b1 in range(b1_lo, b1_hi + 1):
                yield (base + b0, b1)


def space_for(metric: str, **kwargs) -> Space:
    """Factory keyed by :attr:`DependencyConfig.metric`.

    ``metric="graph"`` requires ``adjacency=...`` and accepts
    ``bucketing=False`` to opt out of landmark bucketing.
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
        return GraphSpace(adjacency,
                          bucketing=kwargs.get("bucketing", True))
    raise ConfigError(f"unknown metric {metric!r}")
