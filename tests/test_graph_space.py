"""GraphSpace landmark bucketing, and the one cell contract every space
meets: the cells' Lipschitz lower bound, disconnected components
(infinite distance never blocks or couples), unknown-node errors, the
commit fuzz against the dict-reference oracle on small-world, edgeless
and one-constant-cell worlds, a space without cells refused by name,
and the zero-rescan machinery engaging on a graph-metric replay.
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
                     tree_chord_space)
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

    @pytest.mark.parametrize("sampled", [None, 2])
    def test_cell_window_is_bucket_range_as_four_integers(self, sampled):
        """Same cells in the same order (first axis outer) as the
        reference generator, for every node, radius and cell size the
        cover test above uses."""
        rng = FastRng(5)
        space = GraphSpace(small_world(rng, 30),
                           sampled_component_min=sampled)
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

    DOORS = ("construct", "commit", "dist", "dist_within", "within")

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
    """Rows, balls and the numbering under them against a BFS written
    without the space."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**9),
           sizes=st.lists(st.integers(3, 14), min_size=1, max_size=4),
           labels=st.sampled_from(sorted(LABELS)),
           sampled=st.sampled_from([None, 6]))
    def test_every_pair_at_every_cap(self, seed, sizes, labels, sampled):
        """``sampled=6`` pushes the larger components onto the ball
        store, so one world can mix both stores."""
        adj = labelled_world(FastRng(seed), sizes, LABELS[labels])
        space = GraphSpace(adj, sampled_component_min=sampled)
        assert space.dense_node_cells == (labels == "dense")
        refs = {node: bfs_reference(adj, node) for node in adj}
        diameter = max(max(ref.values()) for ref in refs.values())
        for a, ref in refs.items():
            for b in adj:
                d = ref.get(b, math.inf)
                assert space.dist(a, b) == d
                for cap in range(diameter + 2):
                    got = space.dist_within(a, b, float(cap))
                    assert got == d if d <= cap else got > cap
                    assert space.within(a, b, float(cap)) == (d <= cap)
        if sampled is None:
            assert not space._balls and len(space._rows) == len(adj)

    @pytest.mark.parametrize("n", [256, 257, 300])
    def test_long_path_stays_exact_end_to_end(self, n):
        """A hop count may not fit a byte: a 300-node path has diameter
        299, so rows widen with the component — never clamp."""
        space = GraphSpace(path_graph(n))
        assert space.dist(0, n - 1) == n - 1
        assert space.dist(n - 1, 0) == n - 1
        row = space.hop_row(space.node_index(0))
        assert row.typecode == ("B" if n <= 256 else "H")
        assert list(row) == list(range(n))
        assert space.dist_within(0, n - 1, 5.0) == n - 1  # exact past cap

    def test_rows_stop_where_two_bytes_stop(self):
        """Above ``_row_max`` a component is served by balls whatever
        ``sampled_component_min`` says."""
        space = GraphSpace(path_graph(12), sampled_component_min=10**9)
        assert space._row_max == 1 << 16
        space._row_max = 8
        assert space.hop_row(space.node_index(0)) is None
        assert space.dist(0, 11) == 11.0 and not space._rows

    def test_row_memory_is_bounded_on_a_twenty_thousand_node_world(self):
        """84 components of 240 nodes, every node probed as a source:
        the store stays under its byte budget (dropping wholesale on
        the way) and a component above the size constant never
        materialises a row."""
        rng = FastRng(2)
        ring = small_world(rng, 240, ties=6)
        adj = {(k * 240 + node, 0): [(k * 240 + o, 0) for o in neigh]
               for k in range(84) for node, neigh in ring.items()}
        space = GraphSpace(adj)
        space.ROW_BUDGET_BYTES = 1 << 20
        ref = bfs_reference(ring, 7)
        for k in range(84):
            for node in range(240):
                d = space.dist_within((k * 240 + node, 0),
                                      (k * 240 + 7, 0), 3.0)
                assert d == ref[node]  # symmetric graph
                assert space._row_bytes <= 1 << 20
        assert space._row_bytes == 240 * len(space._rows)
        assert 0 < len(space._rows) < 84 * 240
        assert space.bfs_runs == 2 * 84 + 84 * 240

        big = GraphSpace(ring, sampled_component_min=100)
        for node in range(240):
            big.dist_within(node, (node + 3) % 240, 2.0)
        assert not big._rows
        assert max(len(f) for _, f in big._balls.values()) < 240


class TestDistanceStores:
    """Hop rows for small components, truncated balls above the size
    constant: both bounded, both dropped wholesale, neither ordered."""

    def test_row_budget_never_exceeded(self):
        rng = FastRng(7)
        adj = small_world(rng, 64)
        space = GraphSpace(adj)
        space.ROW_BUDGET_BYTES = 1000  # fifteen 64-byte rows
        for source in range(64):
            ref = bfs_reference(adj, source)
            target = (source + 5) % 64
            assert space.dist(source, target) == ref[target]
            assert 0 < space._row_bytes <= 1000
            assert space._row_bytes == 64 * len(space._rows)
        assert not space._balls

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

    def test_repeated_probes_run_one_bfs_per_source(self):
        rng = FastRng(11)
        space = GraphSpace(small_world(rng, 32))
        built = space.bfs_runs  # the landmark sweeps
        for _ in range(3):
            for source in (0, 9, 17):
                for target in range(32):
                    space.dist_within(source, target, 2.0)
                    space.within(source, target, 3.0)
        assert space.bfs_runs == built + 3

    def test_large_component_runs_truncated_balls_and_evicts(self):
        adj = path_graph(40)
        space = GraphSpace(adj, sampled_component_min=8)
        space.BALL_BUDGET_ENTRIES = 30
        for source in range(40):
            assert space.hop_row(space.node_index(source)) is None
            for target in (source, (source + 3) % 40, (source + 9) % 40):
                d = abs(source - target)
                got = space.dist_within(source, target, 4.0)
                assert got == d if d <= 4 else got > 4.0
            radius, field = space._balls[source]
            assert radius == 4.0 and len(field) <= 9  # never the full path
            assert space._ball_entries <= 30
            assert space._ball_entries == sum(
                len(f) for _, f in space._balls.values())
        assert len(space._balls) < 40  # dropped along the way
        assert not space._rows
        assert space.dist(0, 39) == 39.0  # radius inf: what dist asks for
        assert space._balls[0][0] == math.inf


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
                adj = space._adj
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
    method reads: hop rows, rows after a wholesale drop, balls."""

    @pytest.mark.parametrize("lane", ["rows", "dropped", "balls"])
    @pytest.mark.parametrize("labels", sorted(LABELS))
    def test_every_pair_at_every_radius(self, labels, lane):
        adj = labelled_world(FastRng(4), [9, 13], LABELS[labels])
        # sampled_component_min=10 puts the 13-node component on balls.
        space = GraphSpace(adj, sampled_component_min=(
            10 if lane == "balls" else None))
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
            assert space._row_bytes <= 40
        assert bool(space._balls) == (lane == "balls")


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
        assert built == 2 * len(space._comp_sizes)
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
        """Multi-segment graph traces: the union space keeps segments
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


class TestSampledLandmarks:
    """Approximate landmarks stay 1-Lipschitz, so every bucketing
    contract the blocker index relies on survives the sampled path."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9), n=st.integers(6, 60))
    def test_sampled_cells_keep_the_lipschitz_lower_bound(self, seed, n):
        rng = FastRng(seed)
        adj = small_world(rng, n)
        space = GraphSpace(adj, sampled_component_min=2)  # force sampling
        for cell in (1.0, 2.0):
            buckets = {node: space.bucket(node, cell) for node in range(n)}
            for a in range(n):
                for b in range(a + 1, n):
                    dc = max(abs(buckets[a][0] - buckets[b][0]),
                             abs(buckets[a][1] - buckets[b][1]))
                    assert space.dist(a, b) >= (dc - 1) * cell

    def test_sampled_cell_window_covers_radius(self):
        rng = FastRng(3)
        space = GraphSpace(small_world(rng, 40), sampled_component_min=2)
        for cell in (1.0, 2.0):
            for source in (0, 13, 27):
                for radius in (1.0, 3.0):
                    assert_window_covers(space, source, radius, cell, 40)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**9), n=st.integers(2, 8),
           v=st.integers(8, 20))
    def test_blocking_fuzz_under_sampled_landmarks(self, seed, n, v):
        """The full dict-reference gate with sampling forced on: blocked
        edges must stay bit-equal even with approximate cells."""
        rng = FastRng(seed)
        nodes = [(i, 0) for i in range(v)]
        adj = {node: set() for node in nodes}
        for i in range(1, v):
            j = rng.integers(0, i)
            adj[nodes[i]].add(nodes[j])
            adj[nodes[j]].add(nodes[i])
        space = GraphSpace({k: tuple(sorted(vs)) for k, vs in adj.items()},
                           sampled_component_min=2)
        rules = hop_rules(space)
        positions = {i: nodes[rng.integers(0, v)] for i in range(n)}

        def moves(pos):
            return [pos, *adj[pos]]

        _run_commit_fuzz(rules, positions, moves, rng, n, iters=15)

    def test_dense_id_levels_have_no_dict(self):
        """Dense ``(id, 0)`` graphs store levels in the numpy table
        only — the per-node dict would be ~100 bytes/node at 1M."""
        adj = {(i, 0): ((i + 1, 0),) if i + 1 < 50 else ()
               for i in range(50)}
        adj = {k: tuple(v) for k, v in adj.items()}
        full = {k: set(v) for k, v in adj.items()}
        for k, vs in adj.items():
            for o in vs:
                full[o].add(k)
        space = GraphSpace({k: tuple(sorted(v)) for k, v in full.items()},
                           sampled_component_min=4)
        assert space._larr is not None
        assert not space._levels
        assert space.bucket((0, 0), 1.0) is not None


class TestDistWithin:
    """Capped BFS: the scan paths only need distances up to their
    threshold, so far pairs must not cost a full-component BFS."""

    def test_within_cap_is_exact(self):
        rng = FastRng(9)
        space = GraphSpace(small_world(rng, 40))
        for a in range(0, 40, 5):
            for b in range(0, 40, 7):
                d = space.dist(a, b)
                if d <= 6.0:
                    assert space.dist_within(a, b, 6.0) == d

    def test_beyond_cap_reports_beyond(self):
        # A long path: distances beyond the cap must come back > cap
        # (inf from the truncated BFS, or exact from a warm cache).
        chain = {i: tuple(x for x in (i - 1, i + 1) if 0 <= x < 30)
                 for i in range(30)}
        space = GraphSpace(chain)
        assert space.dist_within(0, 29, 5.0) > 5.0
        assert space.dist_within(0, 3, 5.0) == 3.0

    def test_growing_cap_recomputes(self):
        chain = {i: tuple(x for x in (i - 1, i + 1) if 0 <= x < 20)
                 for i in range(20)}
        space = GraphSpace(chain)
        assert space.dist_within(0, 10, 3.0) > 3.0
        assert space.dist_within(0, 10, 12.0) == 10.0  # larger cap: redo
        assert space.dist_within(0, 4, 12.0) == 4.0    # memoized field

    def test_disconnected_is_infinite(self):
        space = GraphSpace({0: (1,), 1: (0,), 2: (3,), 3: (2,)})
        assert space.dist_within(0, 2, 100.0) == math.inf

    def test_agrees_with_dist_after_cache_warm(self):
        rng = FastRng(21)
        space = GraphSpace(small_world(rng, 30))
        for b in range(30):
            space.dist(0, b)  # warm the full-BFS cache for source 0
        for b in range(30):
            d = space.dist(0, b)
            got = space.dist_within(0, b, 2.0)
            # Warm cache may return the exact distance above the cap —
            # callers only compare against thresholds <= cap, so any
            # value > cap is equivalent to inf for them.
            assert got == d or (got > 2.0 and d > 2.0)
