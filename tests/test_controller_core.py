"""ControllerCore driven by hand — no kernel, no threads, no queues.

The test *is* a transport: each round it hands the core the clusters
that finished (with rows of a trace) through ``step`` and gets back the
clusters the core claimed, finishing them in a seeded order.
Worlds: the collision-course and anchored-disjoint pairs of
``helpers.py`` (a light walker that runs ahead of a heavy laggard until
the §3.2 rules block it), measured by coordinates or by hops on a ring,
alone or as two far copies on one graph (a shard worker's world: regions
no edge crosses).
"""

import random

import pytest

from repro.config import DependencyConfig
from repro.core import DependencyRules
from repro.core.controller import ControllerCore
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


def _world(course, metric, regions):
    """``(rules, step-major positions, n_steps)``."""
    trace = course()
    if regions == 2:
        trace = concat_traces([trace, trace], x_stride=_FAR)
    if metric == "graph":
        rules = DependencyRules(
            DependencyConfig(radius_p=4.0, max_vel=1.0, metric="graph"),
            space=_two_rings())
    else:
        rules = DependencyRules(DependencyConfig())
    return rules, trace.positions_by_step, trace.meta.n_steps


def _core(course, metric, regions, **kw):
    rules, pos_sa, n_steps = _world(course, metric, regions)
    return ControllerCore(rules, pos_sa[0], n_steps, **kw), pos_sa


def _moves(pos_sa, step, members):
    return {m: tuple(pos_sa[step + 1, m].tolist()) for m in members}


def _run_walkers_until_blocked(core, pos_sa):
    """Advance only the odd-id walkers; the laggards' clusters are
    claimed on the first round and never finish (returned: in flight)."""
    walkers = set(range(1, core.graph.n_agents, 2))
    held = []
    clusters = core.step([], {})
    while True:
        mine = [c for c in clusters if walkers.issuperset(c[1])]
        held += [c for c in clusters if c not in mine]
        if not mine:
            break
        members = [m for _, ms in mine for m in ms]
        clusters = core.step(
            members, {m: tuple(pos_sa[s + 1, m].tolist())
                      for s, ms in mine for m in ms})
    assert all(core.graph.blocked_by[w] for w in walkers)
    return walkers, held


WORLDS = pytest.mark.parametrize("regions", [1, 2],
                                 ids=["one-region", "two-regions"])
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
            self, course, metric, regions, order_seed):
        core, pos_sa = _core(course, metric, regions)
        rng = random.Random(order_seed)
        n, n_steps = core.graph.n_agents, core.target_step
        in_flight = core.step([], {})
        while not core.finished():
            assert in_flight, core.stalled()
            # Mostly the light walkers (odd ids) finish first, so they
            # run ahead until the rules block them on their laggard.
            light = [c for c in in_flight if c[1][0] % 2]
            pick = rng.choice(light if light and rng.random() < 0.85
                              else in_flight)
            in_flight.remove(pick)
            step, members = pick
            assert all(core.graph.step[m] == step for m in members)
            in_flight += core.step(members, _moves(pos_sa, step, members))
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
        assert stats.extra["shards"] == 1

    def test_validate_flag_checks_inside_retire(self, course, metric,
                                                regions, monkeypatch):
        core, pos_sa = _core(course, metric, regions, validate=True)
        calls = []
        monkeypatch.setattr(type(core.graph), "validate",
                            lambda self: calls.append(1))
        clusters = core.step([], {})
        for step, members in clusters:
            core.step(members, _moves(pos_sa, step, members))
        assert len(calls) == len(clusters)


@METRICS
@WORLDS
class TestAbort:
    def test_abort_then_redispatch_restores_the_graph_exactly(
            self, metric, regions):
        core, pos_sa = _core(collision_course_trace, metric, regions)
        graph = core.graph
        _, held = _run_walkers_until_blocked(core, pos_sa)
        assert held  # the laggards; the blocked walkers are not in it
        claimed = [m for _, members in held for m in members]

        def state():
            return (set(core.ready), list(graph.running), list(graph.step),
                    [graph.blockers_of(a) for a in range(graph.n_agents)])

        before = state()
        assert core.ready.isdisjoint(claimed)
        assert all(graph.running[m] for m in claimed)
        # Rolled back, the members are the round's frontier: it re-forms
        # and claims the very same clusters, and nothing else moved.
        assert core.step([], {}, aborted=[m for _, m in held]) == held
        assert state() == before
        # ... and the redispatched clusters still retire normally.
        for step, members in held:
            core.step(members, _moves(pos_sa, step, members))
        graph.validate()

    def test_commit_and_abort_in_one_round(self, metric, regions):
        """Failed and finished clusters of one ack batch: one step."""
        core, pos_sa = _core(collision_course_trace, metric, regions)
        first = core.step([], {})
        assert len(first) >= 2
        (s0, done), (_, failed) = first[0], first[1]
        again = core.step(done, _moves(pos_sa, s0, done), aborted=[failed])
        assert (s0, failed) in again
        assert all(core.graph.step[m] == s0 + 1 for m in done)
        assert all(core.graph.step[m] == s0 for m in failed)
        assert core.stats.tasks_completed == len(done)


@METRICS
@WORLDS
class TestStalled:
    def test_wedged_state_names_the_blocked_agents(self, metric, regions):
        core, pos_sa = _core(disjoint_course_trace, metric, regions)
        # Wedge: the laggards' clusters never finish (a transport that
        # lost their acks).
        walkers, held = _run_walkers_until_blocked(core, pos_sa)
        assert core.step([], {}) == []
        report = core.stalled(ready_depth=0, ack_depth=0)
        pairs = {w: [w - 1] for w in sorted(walkers)}
        lost = sum(len(m) for _, m in held)
        assert f"blocked pairs ({len(walkers)} agents): {pairs}" in report
        assert f"running clusters ({lost} agents)" in report
        assert f"progress: 0/{core.graph.n_agents} agents done" in report
        assert "queue depths: ready=0 ack=0" in report


@pytest.mark.parametrize("validate", [False, True], ids=["fast", "validated"])
class TestCouplingCandidates:
    """Commits take coupling candidates from the batch and the blocked
    edges alone; hand-built states that break what this rests on."""

    @staticmethod
    def _core(positions, validate, target_step=8):
        return ControllerCore(DependencyRules(DependencyConfig()),
                              dict(enumerate(positions)), target_step,
                              validate=validate)

    def test_running_agent_in_coupling_range_raises(self, validate):
        """A same-step agent running next to a committing one: the
        validated commit names it at once, the fast path when the same
        round's strict component search examines its candidates."""
        # Distance 5: coupled, yet a valid state one step apart. A
        # broken transport runs the pair as two clusters.
        core = self._core([(0, 0), (5, 0)], validate)
        core.ready.clear()
        core.graph.mark_running([0, 1])
        assert core.step([1], {}) == []  # 1 waits on 0
        assert core.graph.blockers_of(1) == frozenset({0})
        core.graph.running[1] = True  # dispatched while blocked
        match = "is running" if validate else "coupling invariant violated"
        with pytest.raises(SchedulingError, match=match):
            core.step([0], {})

    def test_jump_beyond_max_vel_is_caught_by_validation(self, validate):
        """An agent that lands next to a same-step stranger was never
        its blocker's waiter: only possible by outrunning ``max_vel``
        (``Trace._validate`` rejects such traces). The fast path cannot
        see it — the two leave as separate clusters; validation does."""
        core = self._core([(0, 0), (100, 0)], validate)
        assert core.step([], {}) == [(0, [0]), (0, [1])]
        assert core.step([1], {}) == [(1, [1])]
        if validate:
            with pytest.raises(SchedulingError, match="is running"):
                core.step([0], {0: (99, 0)})
            # The stranger idle at its last step instead of running.
            core = self._core([(0, 0), (100, 0)], validate, target_step=1)
            core.step([], {})
            assert core.step([1], {}) == []
            with pytest.raises(SchedulingError,
                               match="neither a batch peer nor"):
                core.step([0], {0: (99, 0)})
            return
        assert core.step([0], {0: (99, 0)}) == [(1, [0])]
        assert core.graph.running[1]  # in range, at its step, apart
