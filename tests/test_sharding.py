"""The region planner: its safety margin, the boundary proof (no
dependency edge of one graph ever crosses a planned region), the commit
input forms, and the banded scan's locality."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro._util import FastRng
from repro.config import DependencyConfig, SchedulerConfig
from repro.core import DependencyRules, plan_regions, run_replay, rules_for
from repro.core.dependency_graph import SpatioTemporalGraph
from repro.core.space import GraphSpace
from repro.trace.generator import generate_scale_trace
from repro.trace.schema import concat_traces

from helpers import random_trace, ring_space as _ring_space, slot_snapshot
from test_golden_replay import counters
from test_hotpath_scheduler import (DictReferenceGraph,
                                    _assert_graph_matches_reference,
                                    _commit_both, _random_cluster,
                                    banded_graph)


def _fake_trace(positions_by_step: np.ndarray) -> SimpleNamespace:
    return SimpleNamespace(positions_by_step=positions_by_step)


def _two_rings(v, chords=0, seed=0):
    """``(rules, adjacency)`` of two disjoint copies of a ``v``-node ring
    with chords: nodes ``(i, 0)`` and ``(i + 1000, 0)``."""
    base = _ring_space(v, chords=chords, seed=seed)
    adj = dict(base._tile.adj)
    adj.update({(a + 1000, 0): tuple((b + 1000, 0) for b, _ in vs)
                for (a, _), vs in base._tile.adj.items()})
    return DependencyRules(
        DependencyConfig(radius_p=1.0, max_vel=1.0, metric="graph"),
        space=GraphSpace(adj)), adj


class TestPlanRegions:
    def test_far_groups_split_close_groups_merge(self):
        rules = DependencyRules(DependencyConfig())
        n_steps = 10
        margin = rules.radius_p + (n_steps + 1) * rules.max_vel
        pos = np.zeros((n_steps + 1, 4, 2), dtype=np.int32)
        # Agents 0/1 together, 2/3 far beyond the margin; all static.
        pos[:, 0, 0] = 0
        pos[:, 1, 0] = 3
        pos[:, 2, 0] = 3 + int(margin) + 2
        pos[:, 3, 0] = 6 + int(margin) + 2
        shards = plan_regions(_fake_trace(pos), rules, 4)
        assert shards is not None
        assert sorted(sorted(s) for s in shards) == [[0, 1], [2, 3]]
        # Nudge the far pair inside the margin: one region, no sharding.
        pos[:, 2, 0] = 3 + int(margin) - 2
        pos[:, 3, 0] = 4 + int(margin) - 2
        assert plan_regions(_fake_trace(pos), rules, 4) is None

    def test_margin_covers_the_whole_trace_bbox(self):
        """A wanderer's *excursion* counts, not just its start tile."""
        rules = DependencyRules(DependencyConfig())
        n_steps = 6
        margin = rules.radius_p + (n_steps + 1) * rules.max_vel
        pos = np.zeros((n_steps + 1, 2, 2), dtype=np.int32)
        pos[:, 1, 0] = 2 * int(margin)  # far... at step 0
        pos[3, 0, 0] = int(margin)      # ...but 0 swings halfway over
        assert plan_regions(_fake_trace(pos), rules, 2) is None

    def test_graph_metric_regions_are_components(self):
        rules, _ = _two_rings(12)
        pos = np.zeros((5, 6, 2), dtype=np.int32)
        pos[:, :3, 0] = [0, 4, 8]
        pos[:, 3:, 0] = [1000, 1004, 1008]
        shards = plan_regions(_fake_trace(pos), rules, 4)
        assert shards is not None
        assert sorted(sorted(s) for s in shards) == [[0, 1, 2], [3, 4, 5]]

    def test_balancing_is_deterministic_and_bounded(self):
        rules = DependencyRules(DependencyConfig())
        n_steps = 4
        margin = int(rules.radius_p + (n_steps + 1) * rules.max_vel)
        stride = 3 * margin
        # 7 singleton regions into 3 shards: LPT gives 3/2/2.
        pos = np.zeros((n_steps + 1, 7, 2), dtype=np.int32)
        for a in range(7):
            pos[:, a, 0] = a * stride
        shards = plan_regions(_fake_trace(pos), rules, 3)
        assert shards == plan_regions(_fake_trace(pos), rules, 3)
        assert sorted(len(s) for s in shards) == [2, 2, 3]
        assert sorted(sum(map(list, shards), [])) == list(range(7))
        assert all(s == sorted(s) for s in shards)

    def test_single_agent_and_max_shards_below_two(self):
        rules = DependencyRules(DependencyConfig())
        pos = np.zeros((3, 1, 2), dtype=np.int32)
        assert plan_regions(_fake_trace(pos), rules, 8) is None
        pos4 = np.zeros((3, 4, 2), dtype=np.int32)
        pos4[:, :, 0] = [0, 500, 1000, 1500]
        assert plan_regions(_fake_trace(pos4), rules, 1) is None
        assert plan_regions(_fake_trace(pos4), rules, 0) is None


def _region_of(plan, n):
    region = [-1] * n
    for r, members in enumerate(plan):
        for aid in members:
            region[aid] = r
    assert -1 not in region
    return region


def _boundary_fuzz(rules, pos_sa, plan, rng):
    """One graph over every region, driven by random cluster orders with
    each member's next position read off ``pos_sa``: after every commit
    the graph equals the dict reference, and neither the reference's
    blockers nor any coupling component crosses a region of ``plan``.
    Every third agent is mostly passed over, so the rest run ahead of
    it until the rules block them."""
    n_steps, n = pos_sa.shape[0] - 1, pos_sa.shape[1]
    region = _region_of(plan, n)
    laggards = set(range(0, n, 3))
    graph = SpatioTemporalGraph(rules, pos_sa[0])
    ref = DictReferenceGraph(
        rules, {a: tuple(pos_sa[0, a].tolist()) for a in range(n)})
    while min(graph.step) < n_steps:
        done = {a for a in range(n) if graph.step[a] == n_steps}
        batch: list[int] = []
        for _ in range(rng.integers(1, 4)):
            skip = done | set(batch)
            members = _random_cluster(graph, rules, rng, n,
                                      exclude=skip | laggards) \
                if rng.random() < 0.8 else None
            if members is None:
                members = _random_cluster(graph, rules, rng, n, exclude=skip)
            if members is None:
                break
            graph.mark_running(members)
            for m in members:
                ref.running[m] = True
            batch += members
        assert batch, "graph deadlocked"
        _commit_both(graph, ref, batch, {
            m: tuple(pos_sa[graph.step[m] + 1, m].tolist()) for m in batch})
        _assert_graph_matches_reference(graph, ref, n)
        for aid in range(n):
            assert {region[b] for b in ref.blockers(aid)} <= {region[aid]}
            if not graph.running[aid]:
                assert {region[m] for m in graph.component_for(
                    aid, set())} == {region[aid]}
    assert graph.blocked_events > 0  # the regions' own edges were real


#: Atomic regions (8) or regions packed into two shards (2), as a
#: worker gets them.
MAX_SHARDS = pytest.mark.parametrize("max_shards", [8, 2])


class TestRegionBoundary:
    """The proof the worker pool rests on, checked on one graph (fixed
    worlds: each must also see blocked edges)."""

    @MAX_SHARDS
    def test_coordinate_segments_near_the_margin(self, max_shards):
        # Segments strided around the planner's margin: at ``slack`` 0
        # the two closest tiles of neighbouring segments sit one tile
        # beyond it, below 0 their agents may reach each other. (A
        # planner margin of ``radius_p + 4 * max_vel`` fails here.)
        n_steps, width = 12, 12
        rules = DependencyRules(DependencyConfig())
        margin = int(rules.radius_p + (n_steps + 1) * rules.max_vel)
        for seed, slack in enumerate(range(-12, 2)):
            trace = concat_traces(
                [random_trace(seed * 31 + k, n_agents=6, n_steps=n_steps,
                              width=width, height=12, p_call=0.0)
                 for k in range(3)], x_stride=width + margin + 1 + slack)
            plan = plan_regions(trace, rules, max_shards)
            if slack >= 0:
                assert plan is not None and len(plan) == min(3, max_shards)
            _boundary_fuzz(rules, trace.positions_by_step,
                           plan or [list(range(trace.meta.n_agents))],
                           FastRng(seed))

    @MAX_SHARDS
    def test_graph_components(self, max_shards):
        n_steps, n = 10, 8
        for seed, v in enumerate(range(12, 22)):
            rules, adj = _two_rings(v, chords=v // 4, seed=seed)
            rng = FastRng(seed)
            pos = np.zeros((n_steps + 1, n, 2), dtype=np.int32)
            for aid in range(n):
                node = (rng.integers(0, v) + (1000 if aid % 2 else 0), 0)
                for s in range(n_steps + 1):
                    pos[s, aid] = node
                    hops = [node, *adj[node]]  # stay or one hop
                    node = hops[rng.integers(0, len(hops))]
            plan = plan_regions(_fake_trace(pos), rules, max_shards)
            assert sorted(map(sorted, plan)) == [list(range(0, n, 2)),
                                                 list(range(1, n, 2))]
            _boundary_fuzz(rules, pos, plan, rng)

    def test_laggards_block_only_their_own_region(self):
        """Deterministic deep gap: each region's laggard blocks its own
        leader while a lone far agent sprints ahead, on one graph."""
        rules = DependencyRules(DependencyConfig())
        init = np.array([(0, 0), (6, 0), (500, 0), (506, 0), (1000, 0)])
        region = _region_of(plan_regions(
            _fake_trace(np.repeat(init[None], 13, axis=0)), rules, 8), 5)
        assert region == [0, 0, 1, 1, 2]
        graph = SpatioTemporalGraph(rules, init)

        def advance(aid):
            graph.mark_running([aid])
            unblocked = graph.commit([aid], {}).unblocked
            assert {region[u] for u in unblocked} <= {region[aid]}

        for _ in range(12):
            for aid in (1, 3, 4):
                if not graph.is_blocked(aid):
                    advance(aid)
            for aid in range(5):
                assert {region[b] for b in graph.blockers_of(aid)} \
                    <= {region[aid]}
        assert graph.blockers_of(1) == {0} and graph.blockers_of(3) == {2}
        assert graph.step[4] == 12
        # Laggards catch up: each release stays inside its region.
        while min(graph.step) < 12:
            for aid in range(4):
                if graph.step[aid] < 12 and not graph.is_blocked(aid):
                    advance(aid)
        assert not any(map(graph.is_blocked, range(5)))


class TestInProcessIgnoresShards:
    """An in-process replay runs one graph whatever ``shards`` says."""

    @pytest.mark.parametrize("scenario", ["smallville", "metro-grid",
                                          "market-town", "social-graph"])
    def test_same_replay_with_and_without_shards(self, scenario):
        trace = generate_scale_trace(total_agents=75, n_steps=25,
                                     scenario=scenario, base_seed=11)
        base = SchedulerConfig(validate_causality=True)
        assert plan_regions(trace, rules_for(base, trace.meta), 4)
        r0 = run_replay(trace, base)
        r4 = run_replay(trace, replace(base, shards=4))
        assert r4.driver_stats.extra["shards"] == 1
        assert r4.completion_time == r0.completion_time
        assert counters(r4) == counters(r0)


def _commit_forms_fuzz(rules, positions, moves, rng, iters=40, stay_p=0.7):
    """One random commit stream, three input forms, one graph each.

    ``commit`` reads "did not move" off its mapping: a member absent
    from it, a member mapped to an equal position, and a member mapped
    to the graph's own position object must all mean the same thing —
    same :class:`CommitResult`, blocked edges and slot table.
    """
    n = len(positions)
    init = np.array([positions[i] for i in range(n)], dtype=np.int64)
    forms = {
        "movers-only": lambda g, new: {m: p for m, p in new.items()
                                       if p != g.pos[m]},
        "full": lambda g, new: {m: tuple(p) for m, p in new.items()},
        "current": lambda g, new: {m: g.pos[m] if p == g.pos[m] else p
                                   for m, p in new.items()},
    }
    graphs = {f: SpatioTemporalGraph(rules, init) for f in forms}
    lead = graphs["full"]

    def observe(graph, result):
        return (result.unblocked,
                {m: sorted(v) for m, v in result.member_neighbors.items()},
                [graph.blockers_of(a) for a in range(n)],
                graph.snapshot(), slot_snapshot(graph))

    for _ in range(iters):
        cluster = _random_cluster(lead, rules, rng, n)
        assert cluster is not None, "fuzz deadlocked"
        new = {}
        for m in cluster:
            cands = moves(lead.pos[m])
            new[m] = lead.pos[m] if rng.random() < stay_p \
                else cands[rng.integers(0, len(cands))]
        seen = {}
        for form, graph in graphs.items():
            graph.mark_running(cluster)
            seen[form] = observe(
                graph, graph.commit(cluster, forms[form](graph, new)))
        assert seen["movers-only"] == seen["full"] == seen["current"]
    assert lead.scan_skips + lead.near_checks > 0  # slack gate engaged
    # The input form changes no work either.
    for counter in ("scans", "scan_skips", "near_checks",
                    "scanned_slots", "blocked_events"):
        assert len({getattr(g, counter) for g in graphs.values()}) == 1


class TestCommitInputForms:
    @pytest.mark.parametrize("metric", ["euclidean", "graph"])
    def test_commit_input_forms_are_equivalent(self, metric):
        rng = FastRng(7)
        if metric == "graph":
            rules, adj = _two_rings(12, chords=4, seed=7)
            positions = {i: (rng.integers(0, 12), 0) for i in range(5)}
            positions.update({5 + i: (1000 + rng.integers(0, 12), 0)
                              for i in range(5)})

            def moves(pos):
                return [pos, *adj[pos]]
        else:
            rules = DependencyRules(DependencyConfig())
            positions = {i: (rng.integers(0, 40), rng.integers(0, 40))
                         for i in range(6)}
            positions.update({6 + i: (600 + rng.integers(0, 40),
                                      rng.integers(0, 40))
                              for i in range(6)})

            def moves(pos):
                x, y = pos
                lo = 0 if x < 300 else 600
                return [(min(max(x + dx, lo), lo + 39), y + dy)
                        for dx, dy in ((0, 0), (1, 0), (-1, 0), (0, 1),
                                       (0, -1))]
        _commit_forms_fuzz(rules, positions, moves, rng)


class TestScannedSlotsLocality:
    def test_banded_scan_touches_only_local_slots(self):
        """The ISSUE's O(local) gate: commit-driven scans in one corner
        of a wide world must not touch the far population's slots."""
        rules = DependencyRules(DependencyConfig())
        n_far = 400
        rng = FastRng(0)
        positions = {0: (0, 0), 1: (30, 0)}
        for i in range(n_far):
            positions[2 + i] = (5000 + rng.integers(0, 600),
                                rng.integers(0, 600))
        init = np.array([positions[i] for i in range(n_far + 2)],
                        dtype=np.int64)
        banded = SpatioTemporalGraph(rules, init)
        flat = banded_graph(rules, init, 10**9)
        for g in (banded, flat):
            for _ in range(6):
                g.mark_running([1])
                g.commit([1], {1: (30, 0)})
        assert banded.scans == flat.scans > 0
        # The far 400 agents occupy hundreds of slots; a local scan may
        # touch only the scanner's own band neighborhood.
        assert flat.scanned_slots >= n_far // 2
        assert banded.scanned_slots <= 10 * banded.scans
