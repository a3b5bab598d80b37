"""Perception reads the step-start world: §3.2's rule that an agent never
perceives another at a different simulation time.

* The adversary: a lunch window of every scenario, stepped three ways
  from deep copies of one warmed world — ``step_all``, and
  ``step_agents`` over the step-start coupling components in reverse and
  in a seeded random order — must agree on every non-empty call and on
  every agent's position, activity, conversation and memory contents,
  step by step. While perception read the live world, each window held a
  step whose outcome hung on the order (a full day per scenario runs
  ``nightly``).
* The cell index equals the scan it replaces under any mix of lock-step
  and cluster steps, outside writes and deep copies.
* One observation in a 10,000-agent town tests only the agents in the
  index cells around the observer.
"""

import copy
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import STEPS_PER_DAY
from repro.scenarios import get_scenario, scenario_names

from helpers import (agent_snapshot, coupling_components, memory_contents,
                     reference_perceived, step_start)

#: A lunch window per scenario (seed 0) that held an order-dependent step
#: while perception read live state: smallville 4426, metro-grid 4389,
#: market-town 4418, social-graph 4339 (the first, in reverse order).
LUNCH = (4320, 4440)


@lru_cache(maxsize=None)
def _warmed(scenario: str, seed: int, step: int):
    """A model of the scenario's segment population stepped lock-step to
    ``step``; callers step deep copies."""
    scn = get_scenario(scenario)
    model = scn.model(scn.agents_per_segment, seed)
    for s in range(step):
        model.step_all(s)
    return model


def _state(model) -> list[tuple]:
    return [(a.pos, a.awake, a.activity, a.conversation, memory_contents(a))
            for a in model.agents]


def _three_ways(scenario: str, seed: int, start: int, end: int) -> int:
    """Steps ``start..end`` lock-step and cluster by cluster in reverse and
    in random order; asserts they agree after every step. Returns the
    number of steps that had more than one cluster to order."""
    lock = copy.deepcopy(_warmed(scenario, seed, start))
    orders = {"reverse": copy.deepcopy(lock), "random": copy.deepcopy(lock)}
    rnd = random.Random(seed)
    ordered = 0
    step = start
    while step < end:
        active = min(lock.next_active_step(step), end)
        if active > step:  # nobody up: no call steps anyone
            step = active
            continue
        groups = coupling_components(lock, scenario)
        ordered += len(groups) > 1
        want = {aid: c for aid, c in lock.step_all(step).items() if c}
        for name, model in orders.items():
            got = {}
            for group in (groups[::-1] if name == "reverse"
                          else rnd.sample(groups, len(groups))):
                got.update(model.step_agents(step, group))
            assert {aid: c for aid, c in got.items() if c} == want, \
                (name, step)
            assert _state(model) == _state(lock), (name, step)
        step += 1
    return ordered


class TestClusterOrderAdversary:
    @pytest.mark.parametrize("scenario", scenario_names())
    def test_lunch_window_is_order_free(self, scenario):
        assert _three_ways(scenario, 0, *LUNCH) > 50

    @pytest.mark.nightly
    @pytest.mark.parametrize("scenario", scenario_names())
    def test_full_day_is_order_free(self, scenario):
        assert _three_ways(scenario, 0, 0, STEPS_PER_DAY) > 1000


def _perceive_by_scan(twin, start: dict) -> None:
    """Make ``twin`` perceive through :func:`helpers.reference_perceived`
    over ``start``, the whole world's step-start state, which the test
    refills before every step."""
    twin._perceived = lambda aid, view: reference_perceived(twin, aid, start)


#: A lock-step step, a step split into coupling-closed subsets, an
#: outside write of ``awake``, an outside write of ``pos`` (onto another
#: agent's spot, so the mover lands among perceivable agents), or a deep
#: copy (rarer).
_OPS = st.lists(st.one_of(
    st.just(("all",)),
    st.tuples(st.just("split"), st.integers(0, 2 ** 16)),
    st.tuples(st.just("awake"), st.integers(0, 10 ** 6), st.booleans()),
    st.tuples(st.just("pos"), st.integers(0, 10 ** 6),
              st.integers(0, 10 ** 6)),
    st.integers(0, 3).map(lambda k: ("copy",) if k == 0 else ("all",))),
    min_size=4, max_size=24)


class TestIndexMatchesTheScan:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["smallville", "social-graph"]), _OPS)
    def test_any_mix_of_steps_writes_and_copies(self, scenario, ops):
        """Calls and memories equal a twin's that perceives by scanning
        the whole world's step-start state."""
        model = copy.deepcopy(_warmed(scenario, 0, LUNCH[0]))
        twin = copy.deepcopy(model)
        start: dict = {}
        _perceive_by_scan(twin, start)
        n = len(model.agents)
        step = LUNCH[0]
        for op in ops:
            if op[0] == "awake":
                aid = op[1] % n
                model.agents[aid].awake = twin.agents[aid].awake = op[2]
                continue
            if op[0] == "pos":
                aid, onto = op[1] % n, model.agents[op[2] % n].pos
                model.agents[aid].pos = twin.agents[aid].pos = onto
                continue
            if op[0] == "copy":
                model, twin = copy.deepcopy(model), copy.deepcopy(twin)
                _perceive_by_scan(twin, start)
                continue
            start.clear()
            start.update(step_start(twin))
            if op[0] == "all":
                assert model.step_all(step) == twin.step_all(step)
            else:  # coupling-closed subsets: unions of whole clusters
                rnd = random.Random(op[1])
                clusters = coupling_components(model, scenario)
                rnd.shuffle(clusters)
                cuts = sorted(rnd.sample(range(1, len(clusters) + 1),
                                         rnd.randint(1, len(clusters))))
                for lo, hi in zip([0] + cuts, cuts):
                    group = sum(clusters[lo:hi], [])
                    assert model.step_agents(step, group) == \
                        twin.step_agents(step, group)
            assert [agent_snapshot(a) for a in model.agents] == \
                [agent_snapshot(a) for a in twin.agents]
            step += 1


class TestObservationCost:
    def test_one_observation_tests_its_block_only(self):
        """10,000 agents spread over the town by outside ``pos`` writes,
        40 of them up: every observation hands the distance test exactly
        the agents whose step-start position lies in the 3x3 block of
        cells around the observer (counted by brute force), a few
        hundred at most."""
        model = get_scenario("smallville").model(10_000, 1)
        rnd = random.Random(0)
        ys, xs = np.nonzero(model.world.walkable)
        tiles = list(zip(xs.tolist(), ys.tolist()))
        for agent in model.agents:
            agent.pos = rnd.choice(tiles)
        for agent in model.agents[:40]:
            agent.awake = True
        tested, counts = [], []
        start: dict = {}
        side = model._side
        in_reach, perceived = model._in_reach, model._perceived

        def counting_in_reach(pos, near):
            tested.extend(near)
            return in_reach(pos, near)

        def counting_perceived(aid, view):
            del tested[:]
            seen = perceived(aid, view)
            cx, cy = (c // side for c in model.agents[aid].pos)
            near = sum(abs(x // side - cx) <= 1 and abs(y // side - cy) <= 1
                       for (x, y), _ in start.values())
            counts.append((len(tested), near))
            return seen

        model._in_reach = counting_in_reach
        model._perceived = counting_perceived
        for step in range(4000, 4030):
            start.clear()
            start.update(step_start(model))
            model.step_all(step)
        assert len(counts) > 20
        assert all(n_tested == near for n_tested, near in counts)
        assert max(near for _, near in counts) < 500
