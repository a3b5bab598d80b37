"""Tests for the §3.2 / Appendix A dependency rules and distance spaces.

The hypothesis property at the bottom is the paper's soundness theorem:
any schedule that respects the coupled/blocked rules keeps the validity
condition true at every reachable state.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro._util import FastRng
from repro.config import DependencyConfig
from repro.core import DependencyRules
from repro.core.space import (ChebyshevSpace, EuclideanSpace, GraphSpace,
                              ManhattanSpace, space_for)
from repro.errors import CausalityViolation, ConfigError


class TestSpaces:
    def test_euclidean(self):
        s = EuclideanSpace()
        assert s.dist((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_chebyshev(self):
        s = ChebyshevSpace()
        assert s.dist((0, 0), (3, 4)) == 4.0

    def test_manhattan(self):
        s = ManhattanSpace()
        assert s.dist((0, 0), (3, 4)) == 7.0

    def test_metric_ordering_on_grid(self):
        # chebyshev <= euclidean <= manhattan for any pair
        pairs = [((0, 0), (5, 2)), ((1, 7), (4, 3)), ((2, 2), (2, 9))]
        for a, b in pairs:
            che = ChebyshevSpace().dist(a, b)
            euc = EuclideanSpace().dist(a, b)
            man = ManhattanSpace().dist(a, b)
            assert che <= euc <= man

    def test_graph_space_hops(self):
        adj = {"a": ["b"], "b": ["a", "c"], "c": ["b"], "d": []}
        g = GraphSpace(adj)
        assert g.dist("a", "c") == 2.0
        assert g.dist("a", "a") == 0.0
        assert g.dist("a", "d") == math.inf

    def test_graph_space_unknown_node(self):
        with pytest.raises(ConfigError):
            GraphSpace({"a": []}).dist("zzz", "a")

    def test_space_factory(self):
        assert isinstance(space_for("euclidean"), EuclideanSpace)
        assert isinstance(space_for("chebyshev"), ChebyshevSpace)
        assert isinstance(space_for("manhattan"), ManhattanSpace)
        assert isinstance(space_for("graph", adjacency={"a": []}),
                          GraphSpace)
        with pytest.raises(ConfigError):
            space_for("graph")
        with pytest.raises(ConfigError):
            space_for("hilbert")


class TestDependencyConfig:
    def test_defaults_match_genagent(self):
        c = DependencyConfig()
        assert c.radius_p == 4.0
        assert c.max_vel == 1.0
        assert c.couple_threshold == 5.0

    def test_block_threshold_formula(self):
        c = DependencyConfig()
        # (gap + 1) * max_vel + radius_p
        assert c.block_threshold(0) == 5.0
        assert c.block_threshold(3) == 8.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            DependencyConfig(radius_p=-1)
        with pytest.raises(ConfigError):
            DependencyConfig(max_vel=0)
        with pytest.raises(ConfigError):
            DependencyConfig().block_threshold(-1)


class TestRulesPredicates:
    def setup_method(self):
        self.rules = DependencyRules(DependencyConfig())

    def test_coupled_at_threshold(self):
        assert self.rules.coupled((0, 0), (5, 0))
        assert not self.rules.coupled((0, 0), (6, 0))

    def test_blocked_requires_smaller_step(self):
        # B at the same or later step never blocks A (Appendix A case 3).
        assert not self.rules.blocked((0, 0), 5, (1, 0), 5)
        assert not self.rules.blocked((0, 0), 5, (1, 0), 7)

    def test_blocked_threshold_grows_with_gap(self):
        pos_a = (0, 0)
        # gap 1 -> threshold 6; gap 4 -> threshold 9
        assert self.rules.blocked(pos_a, 5, (6, 0), 4)
        assert not self.rules.blocked(pos_a, 5, (7, 0), 4)
        assert self.rules.blocked(pos_a, 5, (9, 0), 1)
        assert not self.rules.blocked(pos_a, 5, (10, 0), 1)

    def test_validate_state_accepts_safe(self):
        self.rules.validate_state([(0, 5, (0, 0)), (1, 6, (20, 0))])

    def test_validate_state_rejects_violation(self):
        # gap 2 -> validity threshold radius_p + 1 = 5; distance 4 violates
        with pytest.raises(CausalityViolation) as err:
            self.rules.validate_state([(0, 5, (0, 0)), (1, 7, (4, 0))])
        assert err.value.distance == pytest.approx(4.0)

    def test_same_step_never_violates(self):
        self.rules.validate_state([(0, 5, (0, 0)), (1, 5, (0, 0))])


# ---------------------------------------------------------------------------
# Soundness property (the Appendix A theorem)
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9),
       n_agents=st.integers(2, 8),
       radius_p=st.floats(0.0, 6.0),
       max_vel=st.floats(0.5, 2.0))
def test_rule_respecting_schedules_preserve_validity(seed, n_agents,
                                                     radius_p, max_vel):
    """Drive random rule-respecting schedules; §3.2 must hold throughout.

    Simulates the scheduler abstractly: agents at integer steps with
    positions moving at most ``max_vel`` per committed step. At each round
    a random coupling-closed, unblocked cluster advances. After every
    commit the validity condition must hold — for any geometry and any
    rule parameters.
    """
    rng = FastRng(seed)
    config = DependencyConfig(radius_p=radius_p, max_vel=max_vel)
    rules = DependencyRules(config)
    positions = [(rng.integers(0, 30), rng.integers(0, 30))
                 for _ in range(n_agents)]
    steps = [0] * n_agents

    def coupled_closure(seed_aid):
        members = {seed_aid}
        frontier = [seed_aid]
        while frontier:
            aid = frontier.pop()
            for other in range(n_agents):
                if other in members or steps[other] != steps[aid]:
                    continue
                if rules.coupled(positions[aid], positions[other]):
                    members.add(other)
                    frontier.append(other)
        return sorted(members)

    for _ in range(40):
        start = rng.integers(0, n_agents)
        # pick the first dispatchable cluster scanning from `start`
        dispatched = False
        for offset in range(n_agents):
            aid = (start + offset) % n_agents
            cluster = coupled_closure(aid)
            blocked = any(
                rules.blocked(positions[m], steps[m], positions[b], steps[b])
                for m in cluster for b in range(n_agents)
                if b not in cluster)
            if blocked:
                continue
            # commit: advance step and move each member by <= max_vel
            for m in cluster:
                steps[m] += 1
                angle = rng.random() * 2 * math.pi
                r = rng.random() * max_vel
                x, y = positions[m]
                positions[m] = (x + r * math.cos(angle),
                                y + r * math.sin(angle))
            dispatched = True
            break
        assert dispatched, "rules must never deadlock all agents"
        rules.validate_state(
            [(i, steps[i], positions[i]) for i in range(n_agents)])
