"""Tests for the SmallVille world substrate: grid, pathfinding, personas,
memory stream, behavior loop and conversations."""

import copy
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import _util
from repro._util import FastRng, UnionFind, fast_rng_for, rng_for, stable_seed
from repro.config import STEPS_PER_DAY
from repro.errors import WorldError
from repro.world import (BehaviorModel, GridWorld, Venue,
                         build_smallville, make_personas)
from repro.world.behavior import FUNC_INDEX, FUNCS
from repro.world.memory_stream import MemoryEvent, MemoryStream
from repro.world.pathfind import PathPlanner, astar
from repro.world.persona import SOCIAL_VENUES

from helpers import agent_snapshot, reference_ranking


class TestGridWorld:
    def test_dimensions_validated(self):
        with pytest.raises(WorldError):
            GridWorld(0, 5)

    def test_walkable_default(self):
        w = GridWorld(10, 10)
        assert w.is_walkable(0, 0)
        assert w.is_walkable(9, 9)
        assert not w.is_walkable(10, 0)
        assert not w.is_walkable(-1, 0)

    def test_wall_rect_with_door(self):
        w = GridWorld(10, 10)
        w.add_wall_rect(2, 2, 6, 6, doors=[(4, 6)])
        assert not w.is_walkable(2, 2)
        assert not w.is_walkable(6, 4)
        assert w.is_walkable(4, 6)  # the door
        assert w.is_walkable(4, 4)  # interior untouched

    def test_venue_walls_and_interior(self):
        w = GridWorld(20, 20)
        w.add_venue(Venue("Shop", 5, 5, 9, 9))
        venue = w.venue("Shop")
        for x, y in venue.tiles():
            assert w.is_walkable(x, y)
        assert not w.is_walkable(4, 4)  # corner wall

    def test_duplicate_venue_rejected(self):
        w = GridWorld(20, 20)
        w.add_venue(Venue("A", 5, 5, 6, 6))
        with pytest.raises(WorldError):
            w.add_venue(Venue("A", 8, 8, 9, 9))

    def test_venue_at(self):
        w = GridWorld(20, 20)
        w.add_venue(Venue("A", 5, 5, 9, 9))
        assert w.venue_at(6, 6).name == "A"
        assert w.venue_at(1, 1) is None

    def test_unknown_venue(self):
        with pytest.raises(WorldError):
            GridWorld(5, 5).venue("Nope")

    def test_bad_venue_bounds(self):
        with pytest.raises(WorldError):
            Venue("bad", 5, 5, 4, 9)

    def test_neighbors_respect_walls(self):
        w = GridWorld(10, 10)
        w.walkable[5, 5] = False  # (x=5, y=5)
        assert (5, 5) not in w.neighbors(5, 4)

    def test_random_walkable_tile_in_venue(self):
        w = GridWorld(30, 30)
        w.add_venue(Venue("A", 10, 10, 14, 14))
        rng = rng_for(0, "t")
        for _ in range(20):
            x, y = w.random_walkable_tile(rng, w.venue("A"))
            assert w.venue("A").contains(x, y)


class TestSmallville:
    def test_builds_with_26_homes(self):
        world, homes = build_smallville()
        assert len(homes) == 26
        assert world.width == 140 and world.height == 100

    def test_social_venues_exist(self):
        world, _ = build_smallville()
        for name in SOCIAL_VENUES:
            assert name in world.venues

    def test_fully_connected(self):
        world, _ = build_smallville()
        planner = PathPlanner(world)
        field = planner.distance_field(world.venue("Hobbs Cafe").center)
        reachable = (field < np.iinfo(np.int32).max).sum()
        assert reachable == world.walkable.sum()


class TestPathfinding:
    def setup_method(self):
        self.world, _ = build_smallville()
        self.planner = PathPlanner(self.world)

    def test_path_endpoints(self):
        start = self.world.venue("House 0").center
        goal = self.world.venue("Hobbs Cafe").center
        path = self.planner.path(start, goal)
        assert path[0] == start and path[-1] == goal

    def test_path_steps_are_unit_and_walkable(self):
        start = self.world.venue("House 3").center
        goal = self.world.venue("Willow Market").center
        path = self.planner.path(start, goal)
        for (x0, y0), (x1, y1) in zip(path, path[1:]):
            assert abs(x0 - x1) + abs(y0 - y1) == 1
            assert self.world.is_walkable(x1, y1)

    def test_matches_astar_length(self):
        start = self.world.venue("House 1").center
        goal = self.world.venue("The Rose Bar").center
        bfs_path = self.planner.path(start, goal)
        astar_path = astar(self.world, start, goal)
        assert len(bfs_path) == len(astar_path)  # both shortest

    def test_next_step_at_goal(self):
        tile = self.world.venue("Johnson Park").center
        assert self.planner.next_step(tile, tile) == tile

    def test_distance_symmetry_of_length(self):
        a = self.world.venue("House 2").center
        b = self.world.venue("Dorm Pharmacy").center
        assert self.planner.distance(a, b) == self.planner.distance(b, a)

    def test_unwalkable_goal_rejected(self):
        assert not self.world.is_walkable(3, 3)  # House 0's wall corner
        with pytest.raises(WorldError):
            self.planner.distance_field((3, 3))

    def test_unreachable_raises(self):
        w = GridWorld(10, 10)
        w.add_wall_rect(3, 3, 7, 7)  # sealed box, no door
        planner = PathPlanner(w)
        with pytest.raises(WorldError):
            planner.distance((0, 0), (5, 5))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_pairs_match_astar(self, seed):
        rng = rng_for(seed, "pp")
        start = self.world.random_walkable_tile(rng)
        goal = self.world.random_walkable_tile(rng)
        bfs = self.planner.path(start, goal)
        ast = astar(self.world, start, goal)
        assert len(bfs) == len(ast)


class TestPersonas:
    def test_deterministic(self):
        a = make_personas(5, seed=1, homes=["House 0", "House 1"])
        b = make_personas(5, seed=1, homes=["House 0", "House 1"])
        assert a == b

    def test_seed_changes_personas(self):
        a = make_personas(5, seed=1, homes=["House 0"])
        b = make_personas(5, seed=2, homes=["House 0"])
        assert a != b

    def test_wake_before_sleep(self):
        for p in make_personas(20, seed=3, homes=["House 0"]):
            assert 0 < p.wake_step < p.sleep_step < STEPS_PER_DAY

    def test_schedule_starts_asleep(self):
        p = make_personas(1, seed=0, homes=["House 0"])[0]
        assert p.block_at(0).activity == "sleeping"

    def test_block_lookup_progression(self):
        p = make_personas(1, seed=0, homes=["House 0"])[0]
        lunch_block = p.block_at(int(12.5 * 360))
        assert lunch_block.activity in ("lunch", "working")

    def test_unique_homes_up_to_pool(self):
        homes = [f"House {i}" for i in range(26)]
        personas = make_personas(25, seed=0, homes=homes)
        assigned = [p.home for p in personas]
        assert len(set(assigned)) == 25


class TestMemoryStream:
    def _event(self, step, kw=("a",), importance=0.5, tokens=30):
        return MemoryEvent(step=step, kind="observation",
                           keywords=frozenset(kw), importance=importance,
                           tokens=tokens)

    def test_add_and_len(self):
        m = MemoryStream()
        m.add(self._event(0))
        assert len(m) == 1

    def test_window_bound(self):
        m = MemoryStream(window=8)
        for i in range(20):
            m.add(self._event(i))
        assert len(m) == 8

    def test_recency_preferred(self):
        m = MemoryStream()
        m.add(self._event(0))
        m.add(self._event(900))
        top = m.retrieve(1000, frozenset(), top_k=1)
        assert top[0].step == 900

    def test_relevance_preferred(self):
        m = MemoryStream()
        m.add(self._event(99, kw=("cats",)))
        m.add(self._event(100, kw=("dogs",)))
        top = m.retrieve(101, frozenset({"cats"}), top_k=1)
        assert "cats" in top[0].keywords

    def test_importance_breaks_ties(self):
        m = MemoryStream()
        m.add(self._event(50, importance=0.1))
        m.add(self._event(50, importance=0.9))
        top = m.retrieve(51, frozenset(), top_k=1)
        assert top[0].importance == 0.9

    def test_retrieved_tokens_sums_topk(self):
        m = MemoryStream()
        for i in range(4):
            m.add(self._event(i, tokens=10))
        assert m.retrieved_tokens(5, frozenset(), top_k=2) == 20
        assert m.retrieved_tokens(5, frozenset(), top_k=10) == 40

    def test_reflection_counter(self):
        m = MemoryStream()
        m.add(self._event(0, importance=0.7))
        assert m.importance_since_reflection == pytest.approx(0.7)
        m.reset_reflection_counter()
        assert m.importance_since_reflection == 0.0


class TestMemoryRankingMemo:
    """The memoised, table-driven ranking against the per-call full sort
    it replaced (``helpers.reference_ranking``).

    Mutations that must each fail ``test_matches_reference``: dropping
    the memo reset in ``add``; ``sort(reverse=True)`` on ``(score,
    tokens)`` pairs without a key (equal scores then order by tokens,
    not by stream position); ``_DECAY[age]`` without the sign guard (a
    negative age indexes the table from its end).
    """

    KEYWORDS = ("lunch", "working", "Ada", "Bo", "conversation")

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference(self, seed):
        rnd = random.Random(seed)
        window = rnd.choice([8, 64])
        stream = MemoryStream(window=window)
        shadow = deque(maxlen=window)
        now = 5000
        for _ in range(400):
            if rnd.random() < 0.4:
                # Few distinct (step, importance, keywords) triples, so
                # exact score ties with different token counts abound;
                # steps reach back past age 4000 and ahead of ``now``.
                event = MemoryEvent(
                    step=now - rnd.choice([-30, -1, 0, 1, 2, 700, 3999,
                                           4000, 4500]),
                    kind="observation",
                    keywords=frozenset(rnd.sample(self.KEYWORDS, 2)),
                    importance=rnd.choice([0.15, 0.6]),
                    tokens=rnd.randrange(20, 80))
                stream.add(event)
                shadow.append(event)
                continue
            if rnd.random() < 0.3:  # else: ask again at the same step
                now += rnd.randrange(1, 40)
            query = frozenset(rnd.sample(self.KEYWORDS, rnd.randrange(3)))
            top_k = rnd.choice([1, 2, 4, 6, 8, 10, 100])
            expect = reference_ranking(shadow, now, query)[:top_k]
            if rnd.random() < 0.5:
                got = stream.retrieve(now, query, top_k=top_k)
                assert len(got) == len(expect)
                assert all(g is e for g, e in zip(got, expect))
            else:
                assert stream.retrieved_tokens(now, query, top_k=top_k) \
                    == sum(e.tokens for e in expect)
        assert len(stream) == len(shadow)

    def test_add_between_equal_queries_is_seen(self):
        m = MemoryStream()
        m.add(MemoryEvent(10, "plan", frozenset({"a"}), 0.5, tokens=7))
        assert m.retrieved_tokens(20, frozenset({"a"}), top_k=4) == 7
        m.add(MemoryEvent(20, "chat", frozenset({"a"}), 0.6, tokens=11))
        assert m.retrieved_tokens(20, frozenset({"a"}), top_k=4) == 18
        assert [e.tokens for e in m.retrieve(20, frozenset({"a"}), 1)] == [11]

    def test_future_event_outranks_the_present(self):
        """Age -5 scores ``0.999 ** -5`` > 1, not the table's far end."""
        m = MemoryStream()
        for step in (95, 100, 105):
            m.add(MemoryEvent(step, "plan", frozenset(), 0.5, tokens=step))
        assert [e.step for e in m.retrieve(100, frozenset(), 3)] == \
            [105, 100, 95]


class TestLazyStreams:
    def test_lazy_stream_equals_eager(self):
        for parts in ((0, "beh", 3, 17), (9, "chat", 1, 2, 4400), ("x",), ()):
            lazy, eager = fast_rng_for(*parts), FastRng(stable_seed(*parts))
            assert [lazy.random() for _ in range(3)] == \
                [eager.random() for _ in range(3)]
            assert [lazy.integers(2, 90) for _ in range(3)] == \
                [eager.integers(2, 90) for _ in range(3)]

    def test_sleeping_night_hashes_nothing(self, monkeypatch):
        from repro.scenarios import get_scenario
        model = get_scenario("smallville").model(25, 4)
        hashed = []
        monkeypatch.setattr(
            _util, "stable_seed",
            lambda *parts: hashed.append(parts) or stable_seed(*parts))
        for step in range(2000):
            assert not any(model.step_all(step).values())
        assert hashed == []  # 50,000 when every agent-step built a stream
        fast_rng_for(1, "beh").random()
        assert hashed == [(1, "beh")]  # the counter does count


def _make_model(n_agents=6, seed=5):
    world, homes = build_smallville()
    personas = make_personas(n_agents, seed=seed, homes=homes)
    return BehaviorModel(world, personas, seed=seed)


class TestBehaviorModel:
    def test_agents_spawn_at_home(self):
        model = _make_model()
        for agent in model.agents:
            home = model.world.venue(agent.persona.home)
            assert home.contains(*agent.pos)

    def test_asleep_at_midnight(self):
        model = _make_model()
        calls = model.step_all(0)
        assert all(not chain for chain in calls.values())
        assert all(not a.awake for a in model.agents)

    def test_wake_emits_plan_chain(self):
        model = _make_model(n_agents=1)
        persona = model.agents[0].persona
        for step in range(persona.wake_step + 1):
            calls = model.step_all(step)
        chain = calls[0]
        assert chain, "wake step must emit calls"
        assert chain[0].func == "daily_plan"
        assert all(c.func == "wake_routine" for c in chain[1:])
        assert model.agents[0].awake

    def test_movement_speed_limit(self):
        model = _make_model()
        prev = [a.pos for a in model.agents]
        for step in range(2200, 2600):  # morning: agents move to work
            model.step_all(step)
            for agent, old in zip(model.agents, prev):
                dx = abs(agent.pos[0] - old[0])
                dy = abs(agent.pos[1] - old[1])
                assert dx + dy <= 1
            prev = [a.pos for a in model.agents]

    def test_positions_stay_walkable(self):
        model = _make_model()
        for step in range(2200, 2500):
            model.step_all(step)
            for agent in model.agents:
                assert model.world.is_walkable(*agent.pos)

    def test_deterministic_across_instances(self):
        a, b = _make_model(seed=9), _make_model(seed=9)
        for step in range(2200, 2400):
            calls_a = a.step_all(step)
            calls_b = b.step_all(step)
            assert calls_a == calls_b
        assert [x.pos for x in a.agents] == [x.pos for x in b.agents]

    def test_funcs_registry_consistent(self):
        assert len(FUNCS) == len(FUNC_INDEX)
        for i, name in enumerate(FUNCS):
            assert FUNC_INDEX[name] == i

    def test_token_bounds(self):
        model = _make_model()
        for step in range(2100, 2600):
            for chain in model.step_all(step).values():
                for call in chain:
                    assert 16 <= call.input_tokens <= 1600
                    assert call.output_tokens >= 1

    def test_conversation_pairs_symmetric_and_frozen(self):
        """Force two agents together and verify conversation mechanics."""
        model = _make_model(n_agents=2, seed=1)
        a, b = model.agents
        cafe = model.world.venue("Hobbs Cafe")
        a.pos = b.pos = cafe.center
        a.awake = b.awake = True
        a.activity = b.activity = "lunch"
        a.persona = a.persona  # unchanged
        started_step = None
        for step in range(4400, 4800):
            calls = model.step_agents(step, [0, 1])
            if a.busy_chatting:
                started_step = step
                break
            # keep them in place
            a.pos = b.pos = cafe.center
            a.target_venue = b.target_venue = None
        assert started_step is not None, "conversation should eventually fire"
        assert b.busy_chatting
        assert a.conv_state.partner == 1
        assert b.conv_state.partner == 0
        # The meeting step carries the utterance chain on the initiator.
        utterances = [c for c in calls[0] if c.func == "utterance"]
        assert len(utterances) >= 8
        assert any(c.func == "convo_summary" for c in calls[0])
        assert any(c.func == "convo_summary" for c in calls[1])
        # Frozen agents don't move while engaged.
        pos_a = a.pos
        model.step_agents(started_step + 1, [0, 1])
        assert a.pos == pos_a
        # Countdown ends symmetrically.
        for step in range(started_step + 2, started_step + 80):
            model.step_agents(step, [0, 1])
            assert a.busy_chatting == b.busy_chatting
            if not a.busy_chatting:
                break
        assert not a.busy_chatting


def _warm_model(upto, n_agents=25, seed=2):
    model = _make_model(n_agents=n_agents, seed=seed)
    for step in range(upto):
        model.step_all(step)
    return model


def _snapshots(model):
    return [agent_snapshot(a) for a in model.agents]


class TestSleepersSkipped:
    def test_sleepers_only_subset_is_a_no_op(self):
        model = _warm_model(2300)
        day_step = 2300
        asleep = [a.agent_id for a in model.agents
                  if not a.awake and a.persona.wake_step != day_step]
        assert asleep and len(asleep) < 25  # some up, some not
        before = _snapshots(model)
        assert model.step_agents(day_step, asleep) == \
            {aid: [] for aid in asleep}
        assert _snapshots(model) == before

    def test_next_active_step(self):
        model = _make_model()
        first_wake = min(a.persona.wake_step for a in model.agents)
        assert model.next_active_step(0) == first_wake
        assert model.next_active_step(first_wake) == first_wake
        model.agents[3].awake = True  # state set from outside is seen
        assert model.next_active_step(40) == 40
        model.agents[3].awake = False
        assert model.next_active_step(STEPS_PER_DAY + 5) == \
            STEPS_PER_DAY + first_wake

    def test_deepcopy_mid_day_steps_identically(self):
        model = _warm_model(2350)
        twin = copy.deepcopy(model)
        for step in range(2350, 2700):
            assert twin.step_all(step) == model.step_all(step)
        assert _snapshots(twin) == _snapshots(model)
        assert any(a.awake for a in model.agents)

    @pytest.mark.parametrize("order_seed", [0, 1])
    def test_shuffled_clusters_equal_lock_step(self, order_seed):
        """Coupling-closed clusters, stepped in any order through the
        wake-up hour, leave the world ``step_all`` leaves."""
        lock = _warm_model(2160, seed=8)
        ooo = copy.deepcopy(lock)
        rnd = random.Random(order_seed)
        reach = (4.0 + 1.0) ** 2  # (radius_p + max_vel) ** 2
        for step in range(2160, 2520):
            uf = UnionFind(len(ooo.agents))
            for a in ooo.agents:
                for b in ooo.agents[a.agent_id + 1:]:
                    if ((a.pos[0] - b.pos[0]) ** 2
                            + (a.pos[1] - b.pos[1]) ** 2) <= reach:
                        uf.union(a.agent_id, b.agent_id)
            clusters = list(uf.groups(range(len(ooo.agents))))
            rnd.shuffle(clusters)
            calls = {}
            for cluster in clusters:
                rnd.shuffle(cluster)
                calls.update(ooo.step_agents(step, cluster))
            assert calls == lock.step_all(step)
            assert _snapshots(ooo) == _snapshots(lock)
        assert sum(a.awake for a in lock.agents) > 5
