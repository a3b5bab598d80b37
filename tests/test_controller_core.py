"""ControllerCore driven by hand — no kernel, no threads, no queues.

The test *is* a transport: it asks the core what may run, claims it,
and retires clusters with rows of a trace, in a seeded order.
Worlds: the collision-course and anchored-disjoint pairs of
``helpers.py`` (a light walker that runs ahead of a heavy laggard until
the §3.2 rules block it), measured by coordinates or by hops on a ring,
on the plain graph or as two far copies behind a ``ShardedGraph``.
"""

import random

import pytest

from repro.config import DependencyConfig
from repro.core import DependencyRules
from repro.core.controller import ControllerCore
from repro.core.sharding import ShardedGraph
from repro.core.space import GraphSpace
from repro.errors import SchedulingError
from repro.trace.schema import concat_traces

from helpers import collision_course_trace, disjoint_course_trace

#: x offset of the second copy: far beyond any blocking threshold the
#: 24-step courses can reach, and its own ring under the graph metric.
_FAR = 1000
_RING = 64


def _two_rings() -> GraphSpace:
    """Two disjoint 64-node rings, nodes ``(x, 0)`` and ``(x + _FAR, 0)``.

    The courses walk x in 0..16 at y = 0, so ring hops equal the
    coordinate distances and the same trajectories serve both metrics.
    """
    adj = {}
    for base in (0, _FAR):
        for i in range(_RING):
            adj[(base + i, 0)] = tuple(sorted(
                ((base + (i - 1) % _RING, 0), (base + (i + 1) % _RING, 0))))
    return GraphSpace(adj)


def _world(course, metric, sharded):
    """``(rules, step-major positions, n_steps, shard plan)``."""
    trace = course()
    plan = None
    if sharded:
        trace = concat_traces([trace, trace], x_stride=_FAR)
        plan = [[0, 1], [2, 3]]
    if metric == "graph":
        rules = DependencyRules(
            DependencyConfig(radius_p=4.0, max_vel=1.0, metric="graph"),
            space=_two_rings())
    else:
        rules = DependencyRules(DependencyConfig())
    return rules, trace.positions_by_step, trace.meta.n_steps, plan


def _core(course, metric, sharded, **kw):
    rules, pos_sa, n_steps, plan = _world(course, metric, sharded)
    core = ControllerCore(rules, pos_sa[0], n_steps, shard_plan=plan, **kw)
    assert isinstance(core.graph, ShardedGraph) == sharded
    return core, pos_sa


def _retire(core, pos_sa, step, members):
    return core.retire(members, {m: tuple(pos_sa[step + 1, m].tolist())
                                 for m in members})


def _run_walkers_until_blocked(core, pos_sa):
    """Advance only the odd-id walkers; the laggards are never claimed."""
    walkers = set(range(1, core.graph.n_agents, 2))
    dirty = set(walkers)
    while True:
        clusters = [c for c in core.ready_clusters(dirty)
                    if walkers.issuperset(c[1])]
        if not clusters:
            break
        core.claim(clusters)
        dirty = set()
        for step, members in clusters:
            dirty |= _retire(core, pos_sa, step, members)
    assert all(core.graph.blocked_by[w] for w in walkers)
    return walkers


WORLDS = pytest.mark.parametrize("sharded", [False, True],
                                 ids=["plain", "sharded"])
METRICS = pytest.mark.parametrize("metric", ["euclidean", "graph"])
COURSES = pytest.mark.parametrize(
    "course", [collision_course_trace, disjoint_course_trace],
    ids=["collision", "disjoint"])


@COURSES
@METRICS
@WORLDS
class TestRoundLoop:
    @pytest.mark.parametrize("order_seed", [0, 1, 2])
    def test_reaches_lockstep_state_valid_after_every_retire(
            self, course, metric, sharded, order_seed):
        core, pos_sa = _core(course, metric, sharded)
        rng = random.Random(order_seed)
        n, n_steps = core.graph.n_agents, core.target_step
        in_flight: list[tuple[int, list[int]]] = []
        dirty = set(core.ready)
        while not core.finished():
            clusters = core.ready_clusters(dirty)
            core.claim(clusters)
            in_flight += clusters
            assert in_flight, core.stalled()
            # Mostly the light walkers (odd ids) finish first, so they
            # run ahead until the rules block them on their laggard.
            light = [c for c in in_flight if c[1][0] % 2]
            pick = rng.choice(light if light and rng.random() < 0.85
                              else in_flight)
            in_flight.remove(pick)
            step, members = pick
            assert all(core.graph.step[m] == step for m in members)
            dirty = _retire(core, pos_sa, step, members)
            core.graph.validate()
        assert not in_flight and not core.ready
        assert core.graph.step == [n_steps] * n
        assert [list(p) for p in core.graph.pos] == pos_sa[n_steps].tolist()
        stats = core.stats
        assert stats.tasks_completed == n * n_steps == stats.cluster_size_sum
        assert stats.max_step_spread >= 2  # the walker really ran ahead
        core.sync_stats()
        assert stats.blocked_events > 0
        assert stats.blocked_events == stats.unblock_events
        assert stats.extra["shards"] == (2 if sharded else 1)
        assert stats.extra["graph_fallback_scans"] == 0

    def test_validate_flag_checks_inside_retire(self, course, metric,
                                                sharded, monkeypatch):
        core, pos_sa = _core(course, metric, sharded, validate=True)
        calls = []
        monkeypatch.setattr(type(core.graph), "validate",
                            lambda self: calls.append(1))
        clusters = core.ready_clusters(set(core.ready))
        core.claim(clusters)
        for step, members in clusters:
            _retire(core, pos_sa, step, members)
        assert len(calls) == len(clusters)


@METRICS
@WORLDS
class TestAbort:
    def test_claim_then_abort_restores_the_graph_exactly(self, metric,
                                                         sharded):
        core, pos_sa = _core(collision_course_trace, metric, sharded)
        graph = core.graph
        _run_walkers_until_blocked(core, pos_sa)

        def state():
            return (set(core.ready), list(graph.running), list(graph.step),
                    [graph.blockers_of(a) for a in range(graph.n_agents)])

        before = state()
        clusters = core.ready_clusters(set(core.ready))
        assert clusters  # the laggards; the blocked walkers are not in it
        core.claim(clusters)
        claimed = [m for _, members in clusters for m in members]
        assert core.ready.isdisjoint(claimed)
        assert all(graph.running[m] for m in claimed)
        dirty = set()
        for _, members in clusters:
            dirty |= core.abort(members)
        assert dirty == set(claimed)
        assert state() == before
        assert core.ready_clusters(dirty) == clusters
        # ... and the redispatched clusters still retire normally.
        core.claim(clusters)
        for step, members in clusters:
            _retire(core, pos_sa, step, members)
        graph.validate()


@METRICS
@WORLDS
class TestStalled:
    def test_wedged_state_names_the_blocked_agents(self, metric, sharded):
        core, pos_sa = _core(disjoint_course_trace, metric, sharded)
        walkers = _run_walkers_until_blocked(core, pos_sa)
        # Wedge: the laggards vanish from the ready pool without ever
        # having been claimed (a transport that lost them).
        core.ready -= set(range(core.graph.n_agents)) - walkers
        assert core.ready_clusters(set(core.ready)) == []
        report = core.stalled(ready_depth=0, ack_depth=0)
        pairs = {w: [w - 1] for w in sorted(walkers)}
        assert f"blocked pairs ({len(walkers)} agents): {pairs}" in report
        assert "running clusters (0 agents)" in report
        assert f"progress: 0/{core.graph.n_agents} agents done" in report
        assert "queue depths: ready=0 ack=0" in report


@pytest.mark.parametrize("validate", [False, True], ids=["fast", "validated"])
class TestCouplingCandidates:
    """Commits take coupling candidates from the batch and the blocked
    edges alone; hand-built states that break what this rests on."""

    @staticmethod
    def _core(positions, validate):
        return ControllerCore(DependencyRules(DependencyConfig()),
                              dict(enumerate(positions)), 8,
                              validate=validate)

    def test_running_agent_in_coupling_range_raises(self, validate):
        """A same-step agent running next to a committing one: the
        validated retire names it at once, the fast path when the next
        round's strict component search examines its candidates."""
        # Distance 5: coupled, yet a valid state one step apart.
        core = self._core([(0, 0), (5, 0)], validate)
        core.claim([(0, [0]), (0, [1])])
        core.retire([1], {})
        assert core.graph.blockers_of(1) == frozenset({0})
        core.graph.running[1] = True  # dispatched while blocked
        if validate:
            with pytest.raises(SchedulingError, match="is running"):
                core.retire([0], {})
            return
        dirty = core.retire([0], {})
        with pytest.raises(SchedulingError,
                           match="coupling invariant violated"):
            core.ready_clusters(dirty)

    def test_jump_beyond_max_vel_is_caught_by_validation(self, validate):
        """An agent that lands next to a same-step stranger was never
        its blocker's waiter: only possible by outrunning ``max_vel``
        (``Trace._validate`` rejects such traces). The fast path cannot
        see it — the two leave as separate clusters; validation does."""
        core = self._core([(0, 0), (100, 0)], validate)
        core.claim([(0, [0]), (0, [1])])
        core.retire([1], {})
        if validate:
            with pytest.raises(SchedulingError,
                               match="neither a batch peer nor"):
                core.retire([0], {0: (99, 0)})
            return
        dirty = core.retire([0], {0: (99, 0)})
        assert core.ready_clusters(dirty | {1}) == [(1, [0]), (1, [1])]
