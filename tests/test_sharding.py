"""Region-sharded controller state: exact equivalence with the single
graph, the region planner's safety margin, and the million-agent memory
paths (sampled landmarks, capped BFS, streamed trace concatenation)."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util import FastRng
from repro.config import DependencyConfig, SchedulerConfig
from repro.core import DependencyRules, ShardedGraph, plan_regions, \
    run_replay, rules_for
from repro.core.dependency_graph import SpatioTemporalGraph
from repro.core.space import GraphSpace
from repro.errors import SchedulingError
from repro.trace.generator import generate_scale_trace

from helpers import ring_space as _ring_space


def _fake_trace(positions_by_step: np.ndarray) -> SimpleNamespace:
    return SimpleNamespace(positions_by_step=positions_by_step)


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
        space = _ring_space(12)
        # Two disjoint ring copies: offset the second's node ids.
        adj = dict(space._adj)
        adj.update({(n + 100, 0): tuple((m + 100, 0) for m, _ in vs)
                    for (n, _), vs in space._adj.items()})
        two = GraphSpace(adj)
        rules = DependencyRules(
            DependencyConfig(radius_p=1.0, max_vel=1.0, metric="graph"),
            space=two)
        pos = np.zeros((5, 6, 2), dtype=np.int32)
        pos[:, :3, 0] = [0, 4, 8]
        pos[:, 3:, 0] = [100, 104, 108]
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


def _fuzz_world(groups):
    """``(n, initial position array, shard plan)`` of disjoint groups."""
    positions = {}
    for g in groups:
        positions.update(g)
    n = len(positions)
    init = np.array([positions[i] for i in range(n)], dtype=np.int64)
    return n, init, [sorted(g) for g in groups]


def _dispatchable_cluster(graph, n, rng):
    """A random coupling component of ``graph`` that is free to run."""
    for seed_aid in sorted(range(n), key=lambda _: rng.random()):
        if graph.running[seed_aid] or graph.is_blocked(seed_aid):
            continue
        members = graph.component_for(seed_aid, set())
        if not any(graph.is_blocked(m) for m in members):
            return members
    raise AssertionError("fuzz deadlocked")


def _mirror_commit_fuzz(rules, groups, moves, rng, iters=30):
    """Drive identical random commits through the single graph and a
    ShardedGraph over ``groups``; every observable must match exactly."""
    n, init, plan = _fuzz_world(groups)
    single = SpatioTemporalGraph(rules, init)
    sharded = ShardedGraph(rules, init, plan)
    assert sharded.n_shards == len(groups)

    for _ in range(iters):
        cluster = _dispatchable_cluster(single, n, rng)
        # The facade's component must be the same members (global ids).
        assert sharded.component_for(cluster[0], set()) == cluster
        single.mark_running(cluster)
        sharded.mark_running(cluster)
        new_pos = {m: moves(single.pos[m])[
            rng.integers(0, len(moves(single.pos[m])))] for m in cluster}
        r1 = single.commit(cluster, new_pos)
        r2 = sharded.commit(cluster, new_pos)
        assert r2.unblocked == r1.unblocked
        assert {m: set(v) for m, v in r2.member_neighbors.items()} == \
            {m: set(v) for m, v in r1.member_neighbors.items()}
        assert sharded.min_step == single.min_step
        assert sharded.max_step == single.max_step
        for aid in range(n):
            assert sharded.step[aid] == single.step[aid]
            assert sharded.pos[aid] == single.pos[aid]
            assert sharded.running[aid] == single.running[aid]
            assert bool(sharded.blocked_by[aid]) == \
                bool(single.blocked_by[aid])
            assert sharded.blockers_of(aid) == single.blockers_of(aid)
            assert sharded.is_blocked(aid) == single.is_blocked(aid)
            if not single.running[aid]:
                assert sharded.invocation_distance(aid) == \
                    single.invocation_distance(aid)
        assert sharded.snapshot() == single.snapshot()


def _commit_forms_fuzz(rules, groups, moves, rng, iters=40, stay_p=0.7):
    """One random commit stream, three input forms, two graph classes.

    ``commit`` reads "did not move" off its mapping: a member absent
    from it, a member mapped to an equal position, and a member mapped
    to the graph's own position object must all mean the same thing —
    same :class:`CommitResult`, blocked edges and slot table — on the
    plain graph and behind the sharded facade.
    """
    n, init, plan = _fuzz_world(groups)
    forms = {
        "movers-only": lambda g, new: {m: p for m, p in new.items()
                                       if p != g.pos[m]},
        "full": lambda g, new: {m: tuple(p) for m, p in new.items()},
        "current": lambda g, new: {m: g.pos[m] if p == g.pos[m] else p
                                   for m, p in new.items()},
    }
    singles = {f: SpatioTemporalGraph(rules, init) for f in forms}
    shardeds = {f: ShardedGraph(rules, init, plan) for f in forms}
    lead = singles["full"]

    def observe(graph, result):
        slots = [sub._slot_snapshot() for sub in graph._shards] \
            if isinstance(graph, ShardedGraph) else graph._slot_snapshot()
        return (result.unblocked,
                {m: sorted(v) for m, v in result.member_neighbors.items()},
                [graph.blockers_of(a) for a in range(n)],
                graph.snapshot(), slots)

    for _ in range(iters):
        cluster = _dispatchable_cluster(lead, n, rng)
        new = {}
        for m in cluster:
            cands = moves(lead.pos[m])
            new[m] = lead.pos[m] if rng.random() < stay_p \
                else cands[rng.integers(0, len(cands))]
        seen = {}
        for family in (singles, shardeds):
            for form, graph in family.items():
                graph.mark_running(cluster)
                seen[form] = observe(
                    graph, graph.commit(cluster, forms[form](graph, new)))
            assert seen["movers-only"] == seen["full"] == seen["current"]
    assert lead.scan_skips + lead.near_checks > 0  # slack gate engaged
    # The input form changes no work either (shard-local min steps make
    # the two classes' scan counters legitimately differ, not the forms).
    for family in (singles, shardeds):
        for counter in ("scans", "scan_skips", "near_checks",
                        "scanned_slots", "blocked_events"):
            assert len({getattr(g, counter) for g in family.values()}) == 1


class TestShardedGraphEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**9), na=st.integers(2, 6),
           nb=st.integers(2, 6))
    def test_two_far_regions_coordinate(self, seed, na, nb):
        rng = FastRng(seed)
        rules = DependencyRules(DependencyConfig())
        # Boxes far beyond any threshold the fuzz can reach, and moves
        # clipped to each box so the regions stay provably independent.
        lo_a, hi_a = 0, 40
        lo_b, hi_b = 600, 640
        group_a = {i: (rng.integers(lo_a, hi_a), rng.integers(0, 40))
                   for i in range(na)}
        group_b = {na + i: (rng.integers(lo_b, hi_b), rng.integers(0, 40))
                   for i in range(nb)}

        def moves(pos):
            x, y = pos
            lo, hi = (lo_a, hi_a) if x < 300 else (lo_b, hi_b)
            out = [(x, y)]
            if x + 1 < hi:
                out.append((x + 1, y))
            if x - 1 >= lo:
                out.append((x - 1, y))
            out += [(x, y + 1), (x, y - 1)]
            return out

        _mirror_commit_fuzz(rules, [group_a, group_b], moves, rng)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**9), n=st.integers(2, 5),
           v=st.integers(6, 14))
    def test_disjoint_components_graph_metric(self, seed, n, v):
        rng = FastRng(seed)
        base = _ring_space(v, chords=v // 3, seed=seed)
        adj = dict(base._adj)
        adj.update({(a + 1000, 0): tuple((b + 1000, 0) for b, _ in vs)
                    for (a, _), vs in base._adj.items()})
        space = GraphSpace(adj)
        rules = DependencyRules(
            DependencyConfig(radius_p=1.0, max_vel=1.0, metric="graph"),
            space=space)
        group_a = {i: (rng.integers(0, v), 0) for i in range(n)}
        group_b = {n + i: (1000 + rng.integers(0, v), 0) for i in range(n)}

        def moves(pos):
            return [pos, *space._adj[pos]]

        _mirror_commit_fuzz(rules, [group_a, group_b], moves, rng)

    @pytest.mark.parametrize("metric", ["euclidean", "graph"])
    def test_commit_input_forms_are_equivalent(self, metric):
        rng = FastRng(7)
        if metric == "graph":
            base = _ring_space(12, chords=4, seed=7)
            adj = dict(base._adj)
            adj.update({(a + 1000, 0): tuple((b + 1000, 0) for b, _ in vs)
                        for (a, _), vs in base._adj.items()})
            space = GraphSpace(adj)
            rules = DependencyRules(
                DependencyConfig(radius_p=1.0, max_vel=1.0,
                                 metric="graph"), space=space)
            groups = [{i: (rng.integers(0, 12), 0) for i in range(5)},
                      {5 + i: (1000 + rng.integers(0, 12), 0)
                       for i in range(5)}]

            def moves(pos):
                return [pos, *space._adj[pos]]
        else:
            rules = DependencyRules(DependencyConfig())
            groups = [{i: (rng.integers(0, 40), rng.integers(0, 40))
                       for i in range(6)},
                      {6 + i: (600 + rng.integers(0, 40),
                               rng.integers(0, 40)) for i in range(6)}]

            def moves(pos):
                x, y = pos
                lo = 0 if x < 300 else 600
                return [(min(max(x + dx, lo), lo + 39), y + dy)
                        for dx, dy in ((0, 0), (1, 0), (-1, 0), (0, 1),
                                       (0, -1))]
        _commit_forms_fuzz(rules, groups, moves, rng)

    def test_three_shards_with_blocking_laggard(self):
        """Deterministic deep-gap scenario: a laggard blocks its own
        region's leader while other regions sprint ahead — blocker sets
        and wake behavior must track the single graph exactly."""
        rules = DependencyRules(DependencyConfig())
        groups = [{0: (0, 0), 1: (6, 0)},
                  {2: (500, 0), 3: (506, 0)},
                  {4: (1000, 0)}]
        positions = {}
        for g in groups:
            positions.update(g)
        init = np.array([positions[i] for i in range(5)], dtype=np.int64)
        single = SpatioTemporalGraph(rules, init)
        sharded = ShardedGraph(rules, init, [sorted(g) for g in groups])
        # Advance 1, 3, and 4 repeatedly; 0 and 2 lag and eventually
        # block their region's runner. Positions never change.
        for _ in range(12):
            for aid in (1, 3, 4):
                if single.is_blocked(aid):
                    assert sharded.is_blocked(aid)
                    continue
                assert not sharded.is_blocked(aid)
                single.mark_running([aid])
                sharded.mark_running([aid])
                p = {aid: tuple(single.pos[aid])}
                r1 = single.commit([aid], p)
                r2 = sharded.commit([aid], p)
                assert r2.unblocked == r1.unblocked
            for aid in range(5):
                assert sharded.blockers_of(aid) == single.blockers_of(aid)
        assert single.is_blocked(1) and single.is_blocked(3)
        assert not single.is_blocked(4)
        # Laggards catch up: releases must propagate identically.
        for _ in range(12):
            for aid in (0, 2):
                if single.is_blocked(aid) or single.step[aid] >= 12:
                    continue
                single.mark_running([aid])
                sharded.mark_running([aid])
                p = {aid: tuple(single.pos[aid])}
                r1 = single.commit([aid], p)
                r2 = sharded.commit([aid], p)
                assert r2.unblocked == r1.unblocked
        assert not single.is_blocked(1)
        assert not sharded.is_blocked(1)

    def test_member_coverage_is_checked(self):
        rules = DependencyRules(DependencyConfig())
        init = np.zeros((4, 2), dtype=np.int64)
        init[:, 0] = [0, 10, 500, 510]
        with pytest.raises(ValueError):
            ShardedGraph(rules, init, [[0, 1], [2]])


class TestDriverEquivalence:
    """Sharded and single controllers replay bit-identically."""

    @pytest.mark.parametrize("scenario", ["smallville", "social-graph"])
    def test_replay_results_match(self, scenario):
        trace = generate_scale_trace(total_agents=75, n_steps=25,
                                     scenario=scenario, base_seed=11)
        base = SchedulerConfig(policy="metropolis",
                               validate_causality=True)
        r0 = run_replay(trace, base)
        r4 = run_replay(trace, replace(base, shards=4))
        assert r4.driver_stats.extra["shards"] > 1
        assert r0.driver_stats.extra["shards"] == 1
        assert r4.completion_time == r0.completion_time
        assert r4.driver_stats.blocked_events == \
            r0.driver_stats.blocked_events
        assert r4.driver_stats.unblock_events == \
            r0.driver_stats.unblock_events
        assert r4.driver_stats.clusters_dispatched == \
            r0.driver_stats.clusters_dispatched
        assert r4.n_tasks_completed == r0.n_tasks_completed
        assert r4.n_calls_completed == r0.n_calls_completed

    def test_speculative_policy_matches(self):
        trace = generate_scale_trace(total_agents=50, n_steps=20,
                                     scenario="smallville", base_seed=7)
        base = SchedulerConfig(policy="metropolis-spec",
                               validate_causality=True)
        r0 = run_replay(trace, base)
        r4 = run_replay(trace, replace(base, shards=4))
        assert r4.completion_time == r0.completion_time
        assert r4.n_tasks_completed == r0.n_tasks_completed

    def test_unshardable_workload_falls_back(self):
        # The default concatenated gutter is inside the safety margin,
        # so the planner must refuse and the driver keeps one graph.
        from repro.trace.generator import generate_concatenated_trace
        trace = generate_concatenated_trace(total_agents=50, n_steps=20,
                                            base_seed=3)
        r = run_replay(trace, SchedulerConfig(policy="metropolis",
                                              shards=4))
        assert r.driver_stats.extra["shards"] == 1


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
        flat = SpatioTemporalGraph(rules, init, band_size=10**9)
        for g in (banded, flat):
            for _ in range(6):
                g.mark_running([1])
                g.commit([1], {1: (30, 0)})
        assert banded.scans == flat.scans > 0
        # The far 400 agents occupy hundreds of slots; a local scan may
        # touch only the scanner's own band neighborhood.
        assert flat.scanned_slots >= n_far // 2
        assert banded.scanned_slots <= 10 * banded.scans


class TestShardedAbort:
    """abort_running mirrors through every shard and the global view."""

    def _pair(self):
        rules = DependencyRules(DependencyConfig())
        init = np.array([(0, 0), (2, 0), (5000, 0), (5002, 0)],
                        dtype=np.int64)
        single = SpatioTemporalGraph(rules, init)
        sharded = ShardedGraph(rules, init, [[0, 1], [2, 3]])
        return single, sharded

    def test_abort_matches_single_graph(self):
        single, sharded = self._pair()
        for g in (single, sharded):
            g.mark_running([0, 1])
            g.mark_running([2, 3])
            g.abort_running([2, 3])
        for aid in range(4):
            assert sharded.running[aid] == single.running[aid]
            assert sharded.step[aid] == single.step[aid]
        assert not sharded.running[2] and not sharded.running[3]
        # Rolled-back members are redispatchable on their home shard and
        # the still-running cluster is untouched.
        assert sharded.component_for(2, set()) == [2, 3]
        assert sharded.running[0] and sharded.running[1]

    def test_abort_of_non_running_raises(self):
        _, sharded = self._pair()
        with pytest.raises(SchedulingError, match="not running"):
            sharded.abort_running([2])

    def test_abort_then_commit_round_trip(self):
        single, sharded = self._pair()
        for g in (single, sharded):
            g.mark_running([0, 1])
            g.abort_running([0, 1])
            g.mark_running([0, 1])
            g.commit([0, 1], {0: (0, 0), 1: (2, 0)})
        assert sharded.snapshot() == single.snapshot()
        assert sharded.min_step == single.min_step == 0
        assert sharded.max_step == single.max_step == 1
