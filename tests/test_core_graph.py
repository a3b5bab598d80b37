"""Tests for the §3.3 spatiotemporal dependency graph.

The central property: the *incrementally* maintained blocked edges always
equal a from-scratch recomputation, across random rule-respecting
schedules.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro._util import FastRng
from repro.config import DependencyConfig
from repro.core import DependencyRules
from repro.core.dependency_graph import SpatioTemporalGraph
from repro.errors import SchedulingError


def _graph(positions, **cfg):
    rules = DependencyRules(DependencyConfig(**cfg))
    return SpatioTemporalGraph(rules, dict(enumerate(positions))), rules


class TestGraphBasics:
    def test_initial_state(self):
        g, _ = _graph([(0, 0), (10, 0)])
        assert g.min_step == 0 and g.max_step == 0
        assert not g.is_blocked(0) and not g.is_blocked(1)

    def test_commit_advances(self):
        g, _ = _graph([(0, 0), (100, 0)])
        g.mark_running([0])
        g.commit([0], {0: (1, 0)})
        assert g.step[0] == 1
        assert g.pos[0] == (1, 0)
        assert g.max_step == 1 and g.min_step == 0

    def test_leader_becomes_blocked(self):
        # Two agents 8 apart: A can lead until (gap+1)*1+4 >= 8, i.e. gap 3.
        g, rules = _graph([(0, 0), (8, 0)])
        for lead in range(1, 4):
            g.mark_running([0])
            candidates = g.commit([0], {0: (0, 0)})
            if lead < 3:
                assert not g.is_blocked(0), f"lead {lead} should be free"
            else:
                assert g.is_blocked(0)
                assert g.blockers_of(0) == frozenset({1})

    def test_waiter_released_on_commit(self):
        g, _ = _graph([(0, 0), (8, 0)])
        for _ in range(3):
            g.mark_running([0])
            g.commit([0], {0: (0, 0)})
        assert g.is_blocked(0)
        g.mark_running([1])
        candidates = g.commit([1], {1: (8, 0)})
        assert 0 in candidates.unblocked
        assert not g.is_blocked(0)

    def test_dispatch_blocked_rejected(self):
        g, _ = _graph([(0, 0), (8, 0)])
        for _ in range(3):
            g.mark_running([0])
            g.commit([0], {0: (0, 0)})
        with pytest.raises(SchedulingError):
            g.mark_running([0])

    def test_double_dispatch_rejected(self):
        g, _ = _graph([(0, 0), (100, 0)])
        g.mark_running([0])
        with pytest.raises(SchedulingError):
            g.mark_running([0])

    def test_commit_not_running_rejected(self):
        g, _ = _graph([(0, 0)])
        with pytest.raises(SchedulingError):
            g.commit([0], {0: (0, 0)})

    def test_snapshot_and_validate(self):
        g, _ = _graph([(0, 0), (50, 0)])
        g.mark_running([0])
        g.commit([0], {0: (1, 0)})
        snap = g.snapshot()
        assert snap == [(0, 1, (1, 0)), (1, 0, (50, 0))]
        g.validate()  # far apart: no violation

    def test_cluster_commit_together(self):
        g, _ = _graph([(0, 0), (2, 0), (100, 0)])
        g.mark_running([0, 1])
        g.commit([0, 1], {0: (1, 0), 1: (3, 0)})
        assert g.step[0] == g.step[1] == 1


class TestIncrementalInvariant:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9), n=st.integers(2, 10))
    def test_incremental_matches_full_recompute(self, seed, n):
        rng = FastRng(seed)
        positions = [(rng.integers(0, 25), rng.integers(0, 25))
                     for _ in range(n)]
        g, rules = _graph(positions)

        def full_blockers(aid):
            return {b for b in range(n) if b != aid and rules.blocked(
                g.pos[aid], g.step[aid], g.pos[b], g.step[b])}

        for _ in range(30):
            # choose a random dispatchable coupled cluster
            order = sorted(range(n), key=lambda _: rng.random())
            dispatched = False
            for seed_aid in order:
                if g.running[seed_aid] or g.is_blocked(seed_aid):
                    continue
                cluster = {seed_aid}
                frontier = [seed_aid]
                while frontier:
                    x = frontier.pop()
                    for other in range(n):
                        if (other not in cluster
                                and not g.running[other]
                                and g.step[other] == g.step[x]
                                and rules.coupled(g.pos[x], g.pos[other])):
                            cluster.add(other)
                            frontier.append(other)
                if any(g.is_blocked(m) for m in cluster):
                    continue
                members = sorted(cluster)
                g.mark_running(members)
                new_pos = {}
                for m in members:
                    x, y = g.pos[m]
                    dx, dy = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)][
                        rng.integers(0, 5)]
                    new_pos[m] = (x + dx, y + dy)
                g.commit(members, new_pos)
                dispatched = True
                break
            assert dispatched, "graph deadlocked"
            # invariant: incremental sets == full recompute (ready agents)
            for aid in range(n):
                if not g.running[aid]:
                    assert g.blocked_by[aid] == full_blockers(aid), \
                        f"agent {aid} blockers diverged"
            g.validate()
