"""GraphSpace hop rows and landmark bucketing, and the one cell contract
every space meets: exact hop counts at every row width, the row budget,
the cells' Lipschitz lower bound, disconnected components (infinite
distance never blocks or couples), unknown-node errors, the commit fuzz
against the dict-reference oracle on small-world, tree, edgeless and
one-constant-cell worlds, a space without cells refused by name, the
zero-rescan machinery engaging on a graph-metric replay, the
component sizes the one graph scenario brings, and copies of one tile
answering as the space over their union does.
"""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util import FastRng
from repro.bench.smoke import scenario_window_trace
from repro.config import DependencyConfig, SchedulerConfig
from repro.core import DependencyRules, run_replay
from repro.core.clustering import geo_clustering
from repro.core.dependency_graph import SpatioTemporalGraph
from repro.core.space import GraphSpace, space_for
from repro.errors import ConfigError

from helpers import (grid_moves, reference_bucket_range, ring_space,
                     tree_chord_space, union_space)
from test_hotpath_scheduler import (DictReferenceGraph,
                                    _assert_window_keys_fresh,
                                    _run_commit_fuzz)


def small_world(rng, n, k=2, ties=2) -> dict[int, list[int]]:
    """A random ring-lattice-with-shortcuts adjacency."""
    adj = {node: [] for node in range(n)}
    for node in range(n):
        for off in range(1, k + 1):
            adj[node].append((node + off) % n)
            adj[node].append((node - off) % n)
    for _ in range(ties):
        a = rng.integers(0, n)
        b = rng.integers(0, n)
        if a != b and b not in adj[a]:
            adj[a].append(b)
            adj[b].append(a)
    return adj


def bfs_reference(adj, source) -> dict:
    """Hop counts from ``source``, written without the space."""
    hops = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for other in adj[node]:
            if other not in hops:
                hops[other] = hops[node] + 1
                queue.append(other)
    return hops


def path_graph(n) -> dict[int, tuple[int, ...]]:
    return {i: tuple(j for j in (i - 1, i + 1) if 0 <= j < n)
            for i in range(n)}


#: How a test world names node ``i``: bare ints and strings take the
#: dict numbering, ``(id, 0)`` pairs the dense one.
LABELS = {"int": lambda i: i, "str": lambda i: f"n{i}",
          "dense": lambda i: (i, 0)}


def labelled_world(rng, sizes, label) -> dict:
    """Disjoint rings-with-a-chord of the given sizes (diameters near
    ``size / 2``) under one labelling."""
    adj, base = {}, 0
    for size in sizes:
        for node, neigh in small_world(rng, size, k=1, ties=1).items():
            adj[label(base + node)] = [label(base + o) for o in neigh]
        base += size
    return adj


def hop_rules(space) -> DependencyRules:
    """Perception reaches direct neighbours; one hop per step."""
    return DependencyRules(
        DependencyConfig(radius_p=1.0, max_vel=1.0, metric="graph"),
        space=space)


def assert_window_covers(space, source, radius, cell, n):
    """Every node of ``0..n-1`` within ``radius`` of ``source`` has its
    cell inside ``source``'s window."""
    x0, x1, y0, y1 = space.cell_window(source, radius, cell)
    for node in range(n):
        if space.dist(source, node) <= radius:
            bx, by = space.bucket(node, cell)
            assert x0 <= bx <= x1 and y0 <= by <= y1, (source, node)


class TestGraphSpaceBasics:
    def test_hop_distance(self):
        space = GraphSpace({0: [1], 1: [0, 2], 2: [1]})
        assert space.dist(0, 2) == 2.0
        assert space.dist(2, 2) == 0.0
        assert space.within(0, 1, 1.0)
        assert not space.within(0, 2, 1.0)

    def test_disconnected_components_infinite(self):
        space = GraphSpace({0: [1], 1: [0], 2: [3], 3: [2]})
        assert space.dist(0, 2) == math.inf
        assert not space.within(0, 3, 1e9)

    def test_unknown_node_raises(self):
        space = GraphSpace({0: [1], 1: [0]})
        with pytest.raises(ConfigError, match="unknown node"):
            space.dist(0, 7)
        with pytest.raises(ConfigError, match="unknown node"):
            space.dist(7, 0)
        with pytest.raises(ConfigError, match="unknown node"):
            space.bucket(7, 1.0)

    def test_dangling_edge_rejected(self):
        with pytest.raises(ConfigError, match="missing from"):
            GraphSpace({0: [1, 9], 1: [0]})

    def test_space_for_graph(self):
        space = space_for("graph", adjacency={0: [1], 1: [0]})
        assert isinstance(space, GraphSpace)
        # Levels to the first node and to the farthest one from it.
        assert [space.bucket(node, 1.0) for node in (0, 1)] == \
            [(0, 1), (1, 0)]
        with pytest.raises(ConfigError, match="adjacency"):
            space_for("graph")

    @pytest.mark.parametrize("labels", sorted(LABELS))
    def test_landmarks_are_the_first_node_and_the_farthest(self, labels):
        """Per component, in insertion order: axis 0 counts hops from
        the component's first node, axis 1 from the first node a BFS
        from it discovers at its largest level. Two BFS per component
        at construction, and no row yet."""
        label = LABELS[labels]
        adj = labelled_world(FastRng(8), [7, 1, 12], label)
        space = GraphSpace(adj)
        assert space.bfs_runs == 2 * 3 and not space._rows
        for comp, first in enumerate((0, 7, 8)):
            ref0 = bfs_reference(adj, label(first))
            far = max(ref0, key=ref0.get)
            ref1 = bfs_reference(adj, far)
            for node in ref0:
                assert list(space._level_of(node)[:3]) == \
                    [ref0[node], ref1[node], comp]

    def test_within_refuses_far_pairs_on_levels_alone(self):
        """A pair whose landmark levels differ by more than the radius
        is refused without a hop row: no BFS runs."""
        space = GraphSpace(path_graph(40))
        built = space.bfs_runs
        assert not space.within(0, 30, 5.0)
        assert not space.within(39, 2, 36.0)
        assert space.bfs_runs == built and not space._rows
        assert space.within(0, 5, 5.0)  # levels cannot refuse: one row
        assert space.bfs_runs == built + 1

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**9), n=st.integers(4, 40))
    def test_landmark_cells_lower_bound_distance(self, seed, n):
        """The cell contract: cells ``dc`` apart on any axis imply
        ``dist >= (dc - 1) * cell`` — the only property the
        step-bucketed blocker index relies on."""
        rng = FastRng(seed)
        space = GraphSpace(small_world(rng, n))
        for cell in (1.0, 2.0, 3.0):
            buckets = {node: space.bucket(node, cell) for node in range(n)}
            for a in range(n):
                for b in range(a + 1, n):
                    dc = max(abs(buckets[a][0] - buckets[b][0]),
                             abs(buckets[a][1] - buckets[b][1]))
                    assert space.dist(a, b) >= (dc - 1) * cell

    def test_cell_window_covers_radius(self):
        rng = FastRng(5)
        space = GraphSpace(small_world(rng, 30))
        for cell in (1.0, 2.0):
            for source in (0, 7, 19):
                for radius in (1.0, 2.0, 5.0):
                    assert_window_covers(space, source, radius, cell, 30)

    def test_cell_window_is_bucket_range_as_four_integers(self):
        """Same cells in the same order (first axis outer) as the
        reference generator, for every node, radius and cell size the
        cover test above uses."""
        rng = FastRng(5)
        space = GraphSpace(small_world(rng, 30))
        for cell in (1.0, 2.0):
            for source in range(30):
                for radius in (1.0, 2.0, 5.0):
                    x0, x1, y0, y1 = space.cell_window(source, radius, cell)
                    walked = [(bx, by) for bx in range(x0, x1 + 1)
                              for by in range(y0, y1 + 1)]
                    assert walked == list(reference_bucket_range(
                        space, source, radius, cell))


class TestUnknownNode:
    """One typed failure, naming the node, at every door."""

    DOORS = ("construct", "commit", "dist", "within")

    @pytest.mark.parametrize("labels", ["int", "dense"])
    @pytest.mark.parametrize("door", DOORS)
    def test_refused_by_name(self, door, labels):
        label = LABELS[labels]
        # Node 3 is left out: a gap in the dense ids, a stranger else.
        adj = {label(0): [label(1)], label(1): [label(0), label(2)],
               label(2): [label(1), label(4)], label(4): [label(2)]}
        ghost = label(3)
        space = GraphSpace(adj)
        rules = hop_rules(space)
        with pytest.raises(ConfigError) as err:
            if door == "construct":
                SpatioTemporalGraph(rules, {0: label(0), 1: ghost})
            elif door == "commit":
                graph = SpatioTemporalGraph(rules, {0: label(0),
                                                    1: label(4)})
                graph.mark_running([0])
                graph.commit([0], {0: ghost})
            else:
                probe = getattr(space, door)
                extra = () if door == "dist" else (2.0,)
                with pytest.raises(ConfigError, match="unknown node"):
                    probe(label(0), ghost, *extra)
                probe(ghost, label(0), *extra)
        assert f"unknown node {ghost!r}" in str(err.value)


class TestHopRowExactness:
    """Rows and the numbering under them against a BFS written without
    the space."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**9),
           sizes=st.lists(st.integers(3, 14), min_size=1, max_size=4),
           labels=st.sampled_from(sorted(LABELS)))
    def test_every_pair_at_every_cap(self, seed, sizes, labels):
        """Several components in one world: every pair's distance, and
        its radius test at every cap, with one row per source."""
        adj = labelled_world(FastRng(seed), sizes, LABELS[labels])
        space = GraphSpace(adj)
        assert space.dense_node_cells == (labels == "dense")
        refs = {node: bfs_reference(adj, node) for node in adj}
        diameter = max(max(ref.values()) for ref in refs.values())
        for a, ref in refs.items():
            for b in adj:
                d = ref.get(b, math.inf)
                assert space.dist(a, b) == d
                for cap in range(diameter + 2):
                    assert space.within(a, b, float(cap)) == (d <= cap)
        assert len(space._rows) == len(adj)

    @pytest.mark.parametrize("n", [256, 257, 300, 65536, 65537])
    def test_long_path_stays_exact_end_to_end(self, n):
        """A hop count may not fit a byte, nor two: a path of ``n``
        nodes has diameter ``n - 1``, so rows widen with the component
        (``B``, ``H``, then ``I``) and never clamp. One store serves
        every component size."""
        space = GraphSpace(path_graph(n))
        assert space.dist(0, n - 1) == n - 1
        assert space.dist(n - 1, 0) == n - 1
        row = space.hop_row(space.node_index(0))
        assert row.typecode == ("B" if n <= 256 else
                                "H" if n <= 1 << 16 else "I")
        assert list(row) == list(range(n))
        assert space.within(0, n - 1, float(n - 1))
        assert not space.within(0, n - 1, float(n - 2))

    def test_row_memory_is_bounded_on_a_twenty_thousand_node_world(self):
        """84 components of 240 nodes, every node probed as a source:
        the store stays under its byte budget, dropping wholesale on
        the way."""
        rng = FastRng(2)
        ring = small_world(rng, 240, ties=6)
        adj = {(k * 240 + node, 0): [(k * 240 + o, 0) for o in neigh]
               for k in range(84) for node, neigh in ring.items()}
        space = GraphSpace(adj)
        space.ROW_BUDGET_BYTES = 1 << 20
        ref = bfs_reference(ring, 7)
        for k in range(84):
            for node in range(240):
                d = space.dist((k * 240 + node, 0), (k * 240 + 7, 0))
                assert d == ref[node]  # symmetric graph
                assert space._tile.row_bytes <= 1 << 20
        assert space._tile.row_bytes == 240 * len(space._rows)
        assert 0 < len(space._rows) < 84 * 240
        assert space.bfs_runs == 2 * 84 + 84 * 240


class TestDistanceStores:
    """Hop rows: bounded, dropped wholesale, never ordered."""

    def test_row_budget_never_exceeded(self):
        rng = FastRng(7)
        adj = small_world(rng, 64)
        space = GraphSpace(adj)
        space.ROW_BUDGET_BYTES = 1000  # fifteen 64-byte rows
        for source in range(64):
            ref = bfs_reference(adj, source)
            target = (source + 5) % 64
            assert space.dist(source, target) == ref[target]
            assert 0 < space._tile.row_bytes <= 1000
            assert space._tile.row_bytes == 64 * len(space._rows)

    def test_wholesale_drop_preserves_correctness(self):
        space = GraphSpace(path_graph(4))
        space.ROW_BUDGET_BYTES = 4  # one row
        assert space.dist(0, 3) == 3.0
        held = space.hop_row(space.node_index(0))
        assert space.dist(3, 0) == 3.0  # drops source 0's row
        assert list(space._rows) == [space.node_index(3)]
        assert space.dist(0, 2) == 2.0  # re-BFS after the drop
        assert len(space._rows) == 1
        assert list(held) == [0, 1, 2, 3]  # a held row is never mutated

    def test_row_over_the_budget_is_held_alone(self):
        """A row larger than the whole budget (a big component) still
        serves: the store empties and holds that one row."""
        space = GraphSpace(path_graph(300))
        space.ROW_BUDGET_BYTES = 100  # one 300-node row takes 600
        for source in (0, 150, 299):
            assert space.dist(source, 299 - source) == abs(299 - 2 * source)
            assert list(space._rows) == [space.node_index(source)]
            assert space._tile.row_bytes == 600

    def test_repeated_probes_run_one_bfs_per_source(self):
        rng = FastRng(11)
        space = GraphSpace(small_world(rng, 32))
        built = space.bfs_runs  # the landmark sweeps
        for _ in range(3):
            for source in (0, 9, 17):
                for target in range(32):
                    space.dist(source, target)
                    space.within(source, target, 3.0)
        assert space.bfs_runs == built + 3

    def test_dense_id_levels_have_no_dict(self):
        """Dense ``(id, 0)`` graphs store levels in the numpy table
        only: nothing is memoised per node until a position is asked
        for."""
        adj = {(i, 0): tuple((j, 0) for j in (i - 1, i + 1) if 0 <= j < 50)
               for i in range(50)}
        space = GraphSpace(adj)
        assert space.dense_node_cells and space._tile.index is None
        assert not space._levels
        assert space.bucket((0, 0), 1.0) == (0, 49)
        assert list(space._levels) == [(0, 0)]


class TestGraphBlocking:
    def test_disconnected_never_blocks(self):
        """Infinite distance: the other component's laggard can never
        block, no matter how far ahead the leader runs."""
        rules = hop_rules(GraphSpace({0: [1], 1: [0], 2: [3], 3: [2]}))
        graph = SpatioTemporalGraph(rules, {0: 0, 1: 1, 2: 2, 3: 3})
        for _ in range(50):
            graph.mark_running([0, 1])
            graph.commit([0, 1], {0: 0, 1: 1})
        assert not graph.is_blocked(0) and not graph.is_blocked(1)
        assert graph.step[0] == 50 and graph.step[2] == 0
        graph.validate()  # infinite distance satisfies §3.2 trivially

    def test_connected_laggard_blocks(self):
        """Same chain, but connected: the hop threshold must bite."""
        chain = {i: [j for j in (i - 1, i + 1) if 0 <= j <= 6]
                 for i in range(7)}
        rules = hop_rules(GraphSpace(chain))
        graph = SpatioTemporalGraph(rules, {0: 0, 1: 6})
        ref = DictReferenceGraph(rules, {0: 0, 1: 6})
        lead = 0
        while not graph.is_blocked(0):
            graph.mark_running([0])
            ref.running[0] = True
            graph.commit([0], {0: 0})
            ref.commit([0], {0: 0})
            lead += 1
            assert graph.blocked_by[0] == ref.blockers(0)
        # blocked exactly when (gap + 1) * 1 + 1 >= 6, i.e. gap 4.
        assert lead == 4
        assert graph.blockers_of(0) == frozenset({1})

    def test_exact_checks_read_hop_rows_only(self):
        """The graph's three exact-check sites (the band scan, the
        near-set re-check and the waiter release) read hop rows and
        never call ``space.dist``; blocked edges still match the dict
        reference on an unpatched space."""
        chain = path_graph(7)
        space = GraphSpace(chain)

        def refuse(a, b):
            raise AssertionError("space.dist called")
        space.dist = refuse
        graph = SpatioTemporalGraph(hop_rules(space), {0: 0, 1: 6})
        ref = DictReferenceGraph(hop_rules(GraphSpace(chain)), {0: 0, 1: 6})

        def commit(aid, node):
            graph.mark_running([aid])
            ref.running[aid] = True
            result = graph.commit([aid], {aid: node})
            ref.commit([aid], {aid: node})
            for a in (0, 1):
                assert graph.blocked_by[a] == ref.blockers(a)
            return result

        while not graph.is_blocked(0):
            commit(0, 0)
        assert commit(1, 6).unblocked == {0, 1}  # the laggard steps
        assert graph.scans and graph.near_checks and graph.unblock_events

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9), n=st.integers(2, 10))
    def test_small_world_matches_reference(self, seed, n):
        """The commit fuzz on random ring lattices with shortcuts under
        bare int labels (the space's dict numbering; the other graph
        fuzzes stand on dense ``(id, 0)`` nodes)."""
        rng = FastRng(seed)
        n_nodes = max(n * 3, 8)
        adjacency = small_world(rng, n_nodes, ties=rng.integers(0, 4))
        positions = {aid: rng.integers(0, n_nodes) for aid in range(n)}
        _run_commit_fuzz(hop_rules(GraphSpace(adjacency)), positions,
                         lambda node: [node, *adjacency[node]], rng, n,
                         iters=30)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**9), n=st.integers(2, 8),
           v=st.integers(8, 20))
    def test_tree_graph_matches_reference(self, seed, n, v):
        """The commit fuzz on random trees: one path between any two
        nodes, so the landmark levels are far from the hop distance
        and the cells prune little."""
        rng = FastRng(seed)
        nodes = [(i, 0) for i in range(v)]
        adj = {node: set() for node in nodes}
        for i in range(1, v):
            j = rng.integers(0, i)
            adj[nodes[i]].add(nodes[j])
            adj[nodes[j]].add(nodes[i])
        space = GraphSpace({k: tuple(sorted(vs)) for k, vs in adj.items()})
        positions = {i: nodes[rng.integers(0, v)] for i in range(n)}
        _run_commit_fuzz(hop_rules(space), positions,
                         lambda pos: [pos, *adj[pos]], rng, n, iters=15)


class NoCellSpace:
    """A metric that gives neither ``grid_bucketing`` nor a window."""

    def dist(self, a, b) -> float:
        return float(abs(a[0] - b[0]))


class TorusSpace(NoCellSpace):
    """Wrap-around Chebyshev distance on a ``w x h`` torus: floor
    division cannot bound a wrapped distance, so it answers with one
    constant cell."""

    def __init__(self, w: int, h: int) -> None:
        self.w, self.h = w, h

    def dist(self, a, b) -> float:
        dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
        return float(max(min(dx, self.w - dx), min(dy, self.h - dy)))

    def bucket(self, pos, cell):
        return (0, 0)

    def cell_window(self, pos, radius, cell):
        return (0, 0, 0, 0)


class TestCellContract:
    """One contract, tested from both sides: a space without a distance
    bound commits exactly on one constant cell, a space without cells
    is refused, and graphs without edges or nodes stand on cells too."""

    @pytest.mark.parametrize("whole_first", [False, True])
    @pytest.mark.parametrize("stay_p", [None, 0.9])
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9), n=st.integers(2, 12))
    def test_constant_cell_torus_matches_reference(self, whole_first,
                                                   stay_p, seed, n):
        rng = FastRng(seed)
        w, h = 24, 16
        rules = DependencyRules(DependencyConfig(), space=TorusSpace(w, h))
        positions = {i: (rng.integers(0, w), rng.integers(0, h))
                     for i in range(n)}
        _run_commit_fuzz(
            rules, positions,
            lambda pos: [(x % w, y % h) for x, y in grid_moves(pos)],
            rng, n, iters=30, whole_first=whole_first, stay_p=stay_p)

    @pytest.mark.parametrize("door", ["graph", "geo_clustering"])
    def test_space_without_cells_is_refused_by_name(self, door):
        space = NoCellSpace()
        with pytest.raises(ConfigError, match=r"NoCellSpace has neither "
                           r"grid_bucketing nor cell_window.*\(0, 0, 0, 0\)"):
            if door == "graph":
                SpatioTemporalGraph(
                    DependencyRules(DependencyConfig(), space=space),
                    {0: (0, 0), 1: (3, 0)})
            else:
                geo_clustering([0, 1], [(0, 0), (3, 0)], space, 5.0)

    def test_edgeless_graph_constructs_and_commits(self):
        """Nodes, no edges: every pair on distinct nodes sits at
        infinite distance; two agents on one node couple."""
        rules = hop_rules(GraphSpace({(i, 0): () for i in range(6)}))
        positions = {0: (0, 0), 1: (1, 0), 2: (1, 0), 3: (5, 0)}
        _run_commit_fuzz(rules, positions, lambda pos: [pos], FastRng(0),
                         len(positions), iters=12)

    def test_empty_graph_constructs_and_commits(self):
        graph = SpatioTemporalGraph(hop_rules(GraphSpace({})), {})
        assert graph.commit([], {}).unblocked == set()
        assert graph.min_step == graph.max_step == 0


class TestWindowKeyCache:
    """Off the grid the join walks the bucket keys each agent cached
    from ``cell_window``, until the agent moves. The commit fuzz
    compares every cached list with a fresh build after every commit."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("world", ["ring", "tree_chord", "torus"])
    def test_cache_matches_a_fresh_build_with_movers(self, world, seed):
        rng = FastRng(seed)
        n = 4 + 3 * seed
        if world == "torus":
            w, h = 24, 16
            rules = DependencyRules(DependencyConfig(), space=TorusSpace(w, h))
            positions = {i: (rng.integers(0, w), rng.integers(0, h))
                         for i in range(n)}

            def moves(pos):
                return [(x % w, y % h) for x, y in grid_moves(pos)]
        else:
            if world == "ring":
                space = ring_space(24, chords=3, seed=seed)
                adj = space._tile.adj
            else:
                space, adj = tree_chord_space(rng, 24)
            rules = hop_rules(space)
            positions = {i: (rng.integers(0, 24), 0) for i in range(n)}

            def moves(pos):
                return [pos, *adj[pos]]  # stay or one hop

        assert _run_commit_fuzz(rules, positions, moves, rng, n,
                                iters=30) > 0

    def test_mover_couples_with_the_stationary_agent_it_reaches(self):
        """Agent 0 caches its window at node 1 of a 10-node path; agent
        1 stands at node 4, one step ahead. Agent 0 hops to node 2 and
        lands within coupling range (2 hops): a window kept from node 1
        (level cells 0..1 at cell 2) would miss node 4's cell 2."""
        rules = hop_rules(GraphSpace(path_graph(10)))
        graph = SpatioTemporalGraph(rules, {0: 1, 1: 4})
        assert graph.component_for(0, set()) == [0]
        cached = graph._wkeys[0]
        assert cached and rules.space.bucket(4, graph.index.cell) \
            not in cached
        graph.mark_running([1])
        graph.commit([1], {})  # stays put, and waits on agent 0
        assert graph.blocked_by[1] == {0}
        graph.mark_running([0])
        result = graph.commit([0], {0: 2})
        assert 1 in result.unblocked
        assert list(result.member_neighbors[0]) == [1]
        assert graph.component_for(0, set()) == [0, 1]
        assert _assert_window_keys_fresh(graph, rules) == 2


class TestWithin:
    """``within(a, b, r) == (dist(a, b) <= r)`` for every pair at every
    radius, against a BFS written without the space, on each lane the
    method reads: hop rows, and rows after a wholesale drop."""

    @pytest.mark.parametrize("lane", ["rows", "dropped"])
    @pytest.mark.parametrize("labels", sorted(LABELS))
    def test_every_pair_at_every_radius(self, labels, lane):
        adj = labelled_world(FastRng(4), [9, 13], LABELS[labels])
        space = GraphSpace(adj)
        if lane == "dropped":
            space.ROW_BUDGET_BYTES = 40  # about three rows
        refs = {node: bfs_reference(adj, node) for node in adj}
        diameter = max(max(ref.values()) for ref in refs.values())
        for a, ref in refs.items():
            for b in adj:
                d = ref.get(b, math.inf)
                for r in range(diameter + 2):
                    assert space.within(a, b, float(r)) == (d <= r), \
                        (a, b, r)
                assert space.dist(a, b) == d
        assert space._rows
        if lane == "dropped":
            assert len(space._rows) < len(adj)  # dropped on the way
            assert space._tile.row_bytes <= 40


class TestGraphSteadyState:
    """The acceptance gate: the zero-rescan machinery engages on a
    graph-metric replay."""

    def test_social_graph_replay_engages_zero_rescan(self):
        trace = scenario_window_trace("social-graph")
        result = run_replay(trace, SchedulerConfig(
            policy="metropolis", scenario="social-graph"))
        extra = result.driver_stats.extra
        assert extra["graph_scan_skips"] > 0  # slack licences fire
        assert extra["graph_near_checks"] > 0  # near sets fire
        assert result.n_calls_completed == trace.n_calls

    def test_bfs_runs_cold_one_per_source_warm_none(self, monkeypatch):
        """The count an LRU-cycling or budget-thrashing store would
        move: a cold replay runs at most one BFS per node some agent
        stands on, a warm one runs none."""
        from repro.scenarios import get_scenario
        trace = scenario_window_trace("social-graph")
        scn = get_scenario("social-graph")
        monkeypatch.setattr(scn, "_spaces", {})  # a space nobody probed
        space = scn.space()
        built = space.bfs_runs  # the landmark sweeps
        assert built == 2 * len(space._tile.comp_sizes)
        config = SchedulerConfig(policy="metropolis",
                                 scenario="social-graph")
        run_replay(trace, config)
        cold = space.bfs_runs - built
        occupied = len(np.unique(trace.positions_by_step[:, :, 0]))
        assert 0 < cold <= occupied
        run_replay(trace, config)
        assert space.bfs_runs == built + cold

    def test_social_graph_scenario_rules_are_graph_metric(self):
        from repro.core.rules import rules_for
        trace = scenario_window_trace("social-graph")
        rules = rules_for(SchedulerConfig(scenario="social-graph"),
                          trace.meta)
        assert isinstance(rules.space, GraphSpace)
        assert rules.config.metric == "graph"
        assert rules.radius_p == 1.0

    def test_graph_trace_with_unresolvable_scenario_refuses(self):
        """A metric='graph' trace must never degrade to Euclidean rules
        — an unresolvable (or mislabeled) scenario fails loudly."""
        import dataclasses

        from repro.core.rules import rules_for
        from repro.errors import ScenarioError
        trace = scenario_window_trace("social-graph")
        gone = dataclasses.replace(trace.meta, scenario="not-a-scenario")
        with pytest.raises(ScenarioError, match="metric='graph'"):
            rules_for(None, gone)
        with pytest.raises(ScenarioError, match="metric='graph'"):
            rules_for(SchedulerConfig(scenario="smallville"), trace.meta)

    def test_loaded_graph_trace_validates_hop_speed(self, tmp_path):
        """Round-trip keeps graph traces honest: a corrupted position
        that teleports an agent is rejected at load."""
        import numpy as np

        from repro.errors import TraceError
        from repro.trace import load_trace, save_trace
        trace = scenario_window_trace("social-graph")
        path = tmp_path / "ok.npz"
        save_trace(trace, path)
        load_trace(path)  # intact: loads fine
        bad = np.array(trace.positions_by_step, copy=True)
        bad[5, 0, 0] = (bad[4, 0, 0] + 60) % 240  # ~30-hop teleport
        save_trace(
            type(trace)(trace.meta, bad, trace.call_step,
                        trace.call_agent, trace.call_func,
                        trace.call_in, trace.call_out),
            tmp_path / "bad.npz")
        with pytest.raises(TraceError, match="hops"):
            load_trace(tmp_path / "bad.npz")

    def test_concatenated_segments_stay_disjoint(self):
        """Multi-segment graph traces: the tiled space keeps segments
        at infinite distance, so cross-segment pairs never block."""
        from repro.scenarios import get_scenario
        scn = get_scenario("social-graph")
        space = scn.space(segments=2)
        world, _ = scn.world()
        stride = world.width + 1
        assert space.dist((0, 0), (1, 0)) <= 2.0
        assert space.dist((0, 0), (stride, 0)) == math.inf
        # and within one copy the metric matches the base space
        base = scn.space()
        assert space.dist((stride + 3, 0), (stride + 9, 0)) == \
            base.dist((3, 0), (9, 0))

    @pytest.mark.parametrize("segments", [1, 8, 60])
    def test_social_graph_components_stay_small(self, segments):
        """The traffic the one store is sized for: ``social-graph`` is a
        union of 240-node rings at every size, so every row is one byte
        per node. A scenario that brings a larger component (a row per
        source over it, ``GraphSpace`` docstring) must say so here."""
        from repro.scenarios import get_scenario
        space = get_scenario("social-graph").space(segments=segments)
        ids = np.flatnonzero(np.asarray(space.node_comp) >= 0)
        sizes = np.bincount(space.components_of(ids))
        assert len(sizes) == segments
        assert sizes.max() <= 240


def tile_world(rng, sizes, gaps) -> dict:
    """Dense ``(id, 0)`` components of the given sizes over the ids
    ``0 .. sum(sizes) + gaps - 1``, ``gaps`` of them left unused."""
    ids = list(range(sum(sizes) + gaps))
    for _ in range(gaps):
        ids.pop(rng.integers(0, len(ids)))
    adj, base = {}, 0
    for size in sizes:
        part = ids[base:base + size]
        for node, neigh in small_world(rng, size, k=1, ties=1).items():
            adj[(part[node], 0)] = [(part[o], 0) for o in neigh]
        base += size
    return adj


def refusal(call):
    """The message of the ``ConfigError`` ``call`` raises (None if it
    returns)."""
    try:
        call()
    except ConfigError as err:
        return str(err)
    return None


class TestTiledSpace:
    """Copies of one tile answer exactly as the space over their union
    adjacency (``helpers.union_space``, the construction the scenario
    used before it kept one tile), door by door, at a tile's cost."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**9),
           sizes=st.lists(st.integers(1, 9), min_size=1, max_size=3),
           gaps=st.integers(0, 3), pad=st.integers(0, 3),
           copies=st.integers(1, 12))
    def test_matches_the_union_space(self, seed, sizes, gaps, pad, copies):
        rng = FastRng(seed)
        adj = tile_world(rng, sizes, gaps)
        stride = max(node for node, _ in adj) + 1 + pad
        tiled = GraphSpace(adj).tiled(copies, stride)
        union = union_space(adj, copies, stride)
        nodes = [(k * stride + node, 0) for k in range(copies)
                 for node, _ in adj]
        ids = np.array([node for node, _ in nodes])
        for space in (tiled, union):
            assert space.dense_node_cells
        for a in nodes:
            assert tiled.node_index(a) == union.node_index(a)
            assert tiled.component_of(a) == union.component_of(a)
            assert list(tiled.hop_row(tiled.node_index(a))) == \
                list(union.hop_row(union.node_index(a)))
            for cell in (1.0, 2.0, 3.0):
                assert tiled.bucket(a, cell) == union.bucket(a, cell)
                for radius in (1.0, 2.0, 5.0):
                    assert tiled.cell_window(a, radius, cell) == \
                        union.cell_window(a, radius, cell)
        for a in (nodes[rng.integers(0, len(nodes))] for _ in range(12)):
            for b in nodes:
                assert tiled.dist(a, b) == union.dist(a, b)
                for radius in (0.0, 1.0, 3.0):
                    assert tiled.within(a, b, radius) == \
                        union.within(a, b, radius)
        assert tiled.components_of(ids).tolist() == \
            union.components_of(ids).tolist()
        for cell in (1.0, 2.0):
            for got, want in zip(tiled.bucket_mat(ids, cell),
                                 union.bucket_mat(ids, cell)):
                assert got.tolist() == want.tolist()
        # The tile's numbers: its landmark sweeps and one row per source
        # it was probed from, whatever the copy count.
        assert tiled.bfs_runs <= 2 * len(sizes) + len(adj)

    @pytest.mark.parametrize("ghost", ["gap", "past", "second-axis",
                                       "negative"])
    def test_refuses_what_the_union_refuses(self, ghost):
        """The gap id after each ring, ids past the last copy, ``(id,
        1)`` and negative ids: the same ``ConfigError``, door by door."""
        from repro.scenarios import get_scenario
        scn = get_scenario("social-graph")
        world, _ = scn.world()
        stride = world.width + 1
        tiled = scn.space(8)
        union = union_space(scn.space()._tile.adj, 8, stride)
        node = {"gap": (3 * stride + 240, 0), "past": (8 * stride, 0),
                "second-axis": (5, 1), "negative": (-1, 0)}[ghost]
        doors = [lambda s: s.dist(node, (0, 0)),
                 lambda s: s.within((0, 0), node, 2.0),
                 lambda s: s.bucket(node, 2.0),
                 lambda s: s.cell_window(node, 1.0, 2.0),
                 lambda s: s.node_index(node),
                 lambda s: s.component_of(node)]
        if node[1] == 0:
            ids = np.array([0, node[0]])
            doors += [lambda s: s.components_of(ids),
                      lambda s: s.bucket_mat(ids, 2.0)]
        for door in doors:
            message = refusal(lambda: door(union))
            assert message == f"unknown node {node!r}"
            assert refusal(lambda: door(tiled)) == message

    def test_copies_need_dense_ids_and_room(self):
        with pytest.raises(ConfigError, match="dense"):
            GraphSpace({0: [1], 1: [0]}).tiled(2, 2)
        pair = GraphSpace({(0, 0): [(1, 0)], (1, 0): [(0, 0)]})
        with pytest.raises(ConfigError, match="stride 1"):
            pair.tiled(2, 1)
        with pytest.raises(ConfigError, match="needs a copy"):
            pair.tiled(0, 2)

    def test_scenario_shares_one_tile(self):
        """``space(1)``, ``space(2)`` and ``space(8)`` lay out one tile:
        one ring's adjacency, no union of them."""
        from repro.scenarios import get_scenario
        scn = get_scenario("social-graph")
        tile = scn.space()._tile
        for segments in (2, 8):
            space = scn.space(segments)
            assert space._tile is tile and space.copies == segments
        assert len(tile.adj) == 240 and len(tile.comp_sizes) == 1

    def test_warm_eight_segment_replay_runs_a_tile_of_bfs(self,
                                                          monkeypatch):
        """Eight differently seeded segments share the tile's hop rows:
        the landmark sweeps plus at most one row per ring node an agent
        stands on in any copy (so at most 242), where per-copy rows
        would run one per occupied node of every segment. A warm replay
        runs none, and the oracle's after it stays in the tile."""
        from repro.scenarios import get_scenario
        from repro.trace.schema import concat_traces
        scn = get_scenario("social-graph")
        world, _ = scn.world()
        stride = world.width + 1
        trace = concat_traces(
            [scenario_window_trace(scn, seed=seed) for seed in range(8)],
            x_stride=stride)
        ids = trace.positions_by_step[:, :, 0]
        assert len(np.unique(ids % stride)) < len(np.unique(ids))
        monkeypatch.setattr(scn, "_spaces", {})  # a tile nobody probed
        config = SchedulerConfig(policy="metropolis",
                                 scenario="social-graph")
        run_replay(trace, config)
        space = scn.space(8)
        cold = space.bfs_runs
        assert 2 < cold <= 2 + len(np.unique(ids % stride)) <= 2 + 240
        run_replay(trace, config)
        assert space.bfs_runs == cold
        # The oracle's mining probes from other sources, in the tile too.
        run_replay(trace, SchedulerConfig(policy="oracle",
                                          scenario="social-graph"))
        assert space.bfs_runs <= 2 + len(np.unique(ids % stride))

    def test_four_thousand_segments_cost_a_tile(self, monkeypatch):
        """The social-graph@100k scale cells' space: the union of 4,000
        rings took 627 MiB of RSS. Laid out from one tile it holds two
        small columns per node id."""
        import tracemalloc

        from repro.scenarios import get_scenario
        scn = get_scenario("social-graph")
        monkeypatch.setattr(scn, "_spaces", {})
        scn.world()
        tracemalloc.start()
        try:
            space = scn.space(4000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert space.bfs_runs == 2
        assert space.table_bytes < 8 << 20
        assert space.dist((3999 * 241 + 3, 0), (3999 * 241 + 9, 0)) == \
            scn.space().dist((3, 0), (9, 0))
