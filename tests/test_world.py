"""Tests for the SmallVille world substrate: grid, pathfinding, personas,
memory stream, behavior loop and conversations."""

import copy
import random
from collections import deque
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import _util
from repro._util import FastRng, UnionFind, fast_rng_for, rng_for, stable_seed
from repro.config import STEPS_PER_DAY
from repro.errors import WorldError
from repro.scenarios import get_scenario, scenario_names
from repro.world import (BehaviorModel, GridWorld, Venue, behavior,
                         build_smallville, make_personas, memory_stream)
from repro.world.behavior import FUNC_INDEX, FUNCS
from repro.world.memory_stream import MemoryEvent, MemoryStream
from repro.world.pathfind import PathPlanner
from repro.world.persona import SOCIAL_VENUES

from helpers import (agent_snapshot, coupling_components, is_dwelling,
                     reference_astar,
                     reference_chat_pairs, reference_distance_field,
                     reference_perceived, reference_ranking,
                     reference_stable_seed, reference_up,
                     reference_venue_at, step_start)

GRID_SCENARIOS = [name for name in scenario_names()
                  if get_scenario(name).metric != "graph"]


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
        astar_path = reference_astar(self.world, start, goal)
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
        ast = reference_astar(self.world, start, goal)
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
        top = m._ranking(1000, frozenset())[:1]
        assert top[0].step == 900

    def test_relevance_preferred(self):
        m = MemoryStream()
        m.add(self._event(99, kw=("cats",)))
        m.add(self._event(100, kw=("dogs",)))
        top = m._ranking(101, frozenset({"cats"}))[:1]
        assert "cats" in top[0].keywords

    def test_importance_breaks_ties(self):
        m = MemoryStream()
        m.add(self._event(50, importance=0.1))
        m.add(self._event(50, importance=0.9))
        top = m._ranking(51, frozenset())[:1]
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
    """The kept, table-driven ranking against the per-call full sort it
    replaced (``helpers.reference_ranking``).

    Mutations that must each fail here (scripted in
    ``scripts/mutants.py``): ``add`` not counting the event (the kept
    ranking misses it); ties ordered by tokens, not by stream position;
    ``_DECAY[age]`` without the sign guard (a negative age indexes the
    table from its end); the one-keyword shortcut scoring a hit 1.0 or
    taken for two keywords; and, in the reuse, the age-range test
    skipped, every class pair taken as shift-safe, appended events
    inserted with ``bisect_left`` (before equal keys), or token sums kept
    through a carry that changed the order.
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
                got = stream._ranking(now, query)[:top_k]
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
        assert [e.tokens for e in m._ranking(20, frozenset({"a"}))[:1]] == [11]

    def test_one_keyword_query_matches_reference(self):
        """The membership shortcut: 0.1 + 1 / 1 and 0.1 + 0 / 1 are the
        literals it uses, and the order is the reference's."""
        assert (0.1 + 1 / 1, 0.1 + 0 / 1) == (1.1, 0.1)
        rnd = random.Random(7)
        stream = MemoryStream()
        for i in range(64):
            stream.add(MemoryEvent(
                step=4000 + rnd.randrange(400), kind="observation",
                keywords=frozenset(rnd.sample(self.KEYWORDS, 2)),
                importance=rnd.choice([0.15, 0.6]), tokens=i))
        for word in self.KEYWORDS + ("absent",):
            got = stream._ranking(4400, frozenset({word}))[:64]
            want = reference_ranking(stream._events, 4400, frozenset({word}))
            assert all(g is w for g, w in zip(got, want))
            assert len(got) == 64

    @pytest.mark.parametrize("seed", range(8))
    def test_reuse_matches_reference(self, seed, monkeypatch):
        """One query held for stretches while ``now`` advances and events
        arrive: rankings are carried forward, with evictions between
        them, and bursts that evict events appended since the last
        ranking; ages cross 4000 and some events are stamped ahead."""
        sorts = _count_full_sorts(monkeypatch)
        rnd = random.Random(100 + seed)
        window = rnd.choice([4, 8, 64])
        stream = MemoryStream(window=window)
        shadow = deque(maxlen=window)
        now, rankings = 3000, 0
        for phase in range(12):
            query = frozenset(rnd.sample(self.KEYWORDS, rnd.randrange(3)))
            # Every third phase also stamps events ahead of now or
            # almost 4000 steps back: each blocks reuse while it is held.
            ages = [0] * 8 + [1, 5, 40] + [-3, 3990] * (phase % 3 == 0)
            for _ in range(60):
                burst = rnd.choice([0] * 4 + [1] * 4 + [2] * 3 + [window + 1])
                for _ in range(burst):
                    event = MemoryEvent(
                        step=now - rnd.choice(ages),
                        kind="observation",
                        keywords=frozenset(rnd.sample(self.KEYWORDS, 2)),
                        importance=rnd.choice([0.15, 0.6]),
                        tokens=rnd.randrange(20, 80))
                    stream.add(event)
                    shadow.append(event)
                now += rnd.choice([0, 1, 1, 3, 15])
                want = reference_ranking(shadow, now, query)
                top_k = rnd.choice([1, 2, 4])
                assert stream.retrieved_tokens(now, query, top_k=top_k) \
                    == sum(e.tokens for e in want[:top_k])
                got = stream._ranking(now, query)[:window]
                rankings += 1
                assert len(got) == len(want)
                assert all(g is w for g, w in zip(got, want)), (phase, now)
        assert sorts[0] < rankings // 2  # most rankings were carried

    def test_carried_across_steps_and_appends(self, monkeypatch):
        """The generator's pattern: one query, ``now`` advancing, an
        event or two appended between rankings, the window full."""
        sorts = _count_full_sorts(monkeypatch)
        stream = MemoryStream(window=8)
        shadow = deque(maxlen=8)
        query = frozenset({"lunch"})
        for step in range(100, 400):
            if step % 3 == 0:
                event = MemoryEvent(step, "observation",
                                    frozenset({"lunch", "Bo"} if step % 2
                                              else {"Ada", "Bo"}),
                                    0.15, tokens=step)
                stream.add(event)
                shadow.append(event)
            got = stream._ranking(step, query)[:8]
            assert got == reference_ranking(shadow, step, query)
        assert sorts[0] == 3  # two of the empty stream, the first event

    def test_appended_then_evicted_before_ranking(self):
        stream = MemoryStream(window=4)
        first = [MemoryEvent(10 + i, "plan", frozenset({"a"}), 0.5, tokens=i)
                 for i in range(4)]
        for event in first:
            stream.add(event)
        stream._ranking(20, frozenset({"a"}))[:4]
        later = [MemoryEvent(20 + i, "plan", frozenset({"b"} if i % 2 else
                                                       {"a"}), 0.5,
                             tokens=10 + i) for i in range(5)]
        for event in later:  # all four ranked ones and later[0] evicted
            stream.add(event)
        got = stream._ranking(30, frozenset({"a"}))[:4]
        want = reference_ranking(later[1:], 30, frozenset({"a"}))
        assert [e.tokens for e in got] == [e.tokens for e in want]
        assert all(g is w for g, w in zip(got, want))

    def test_aging_past_the_table_forces_full_sort(self, monkeypatch):
        """An age reaching 4000 between two rankings zeroes a score: no
        shift keeps that order."""
        sorts = _count_full_sorts(monkeypatch)
        stream = MemoryStream()
        old = MemoryEvent(100, "plan", frozenset({"a"}), 0.6, tokens=1)
        new = MemoryEvent(2000, "plan", frozenset({"b"}), 0.15, tokens=2)
        for event in (old, new):
            stream.add(event)
        query = frozenset({"a"})
        assert stream._ranking(4095, query)[:2] == [old, new]
        assert stream._ranking(4105, query)[:2] == [new, old]
        assert sorts[0] == 2

    def test_event_ahead_of_now_forces_full_sort(self, monkeypatch):
        sorts = _count_full_sorts(monkeypatch)
        stream = MemoryStream()
        events = [MemoryEvent(step, "plan", frozenset({"a"}), 0.15, tokens=i)
                  for i, step in enumerate((4000, 4100, 4090))]
        for event in events:
            stream.add(event)
        query = frozenset({"a"})
        for now in (4105, 4095, 4098):  # step 4100: 5 old, 5 and 2 ahead
            assert stream._ranking(now, query)[:3] == \
                reference_ranking(events, now, query)
        assert sorts[0] == 3

    def test_near_tie_pair_takes_full_sort(self, monkeypatch):
        """Two classes whose importance ratio is ``0.999 ** -k`` in
        floats score within rounding of each other at every age k apart,
        and which ranks first flips with the shift: the guard refuses
        the pair, and the second ranking is a full sort."""
        k, low = 1, 0.1
        high = (0.5 + low) * 0.999 ** -k - 0.5
        assert (0.5 + high) / (0.5 + low) == 0.999 ** -k
        a, shift = self._flip(low, high, k)
        sorts = _count_full_sorts(monkeypatch)
        stream = MemoryStream()
        now = 5000
        far = MemoryEvent(now - a - k, "plan", frozenset(), high, tokens=1)
        near = MemoryEvent(now - a, "plan", frozenset(), low, tokens=2)
        for event in (far, near):
            stream.add(event)
        first = stream._ranking(now, frozenset())[:2]
        second = stream._ranking(now + shift, frozenset())[:2]
        assert first == reference_ranking([far, near], now, frozenset())
        assert second == reference_ranking([far, near], now + shift,
                                           frozenset())
        assert first[0] is not second[0]
        assert sorts[0] == 2

    @staticmethod
    def _flip(low, high, k):
        """An age ``a`` and a shift that change which of the pair ranks
        first (the one ``k`` steps older wins ties: it came first)."""
        def near_first(age):
            near = MemoryStream.RECENCY_DECAY ** age * (0.5 + low)
            far = MemoryStream.RECENCY_DECAY ** (age + k) * (0.5 + high)
            return near > far
        for a in range(100, 3000):
            for shift in range(1, 50):
                if near_first(a + shift) != near_first(a):
                    return a, shift
        raise AssertionError("no flip found")

    def test_future_event_outranks_the_present(self):
        """Age -5 scores ``0.999 ** -5`` > 1, not the table's far end."""
        m = MemoryStream()
        for step in (95, 100, 105):
            m.add(MemoryEvent(step, "plan", frozenset(), 0.5, tokens=step))
        assert [e.step for e in m._ranking(100, frozenset())[:3]] == \
            [105, 100, 95]


#: The importances ``BehaviorModel`` writes (observation, reflection,
#: plan, chat); with a one-keyword query's relevances 1.1 and 0.1 they
#: are the eight classes the generator ranks.
BEHAVIOR_IMPORTANCES = frozenset({0.15, 0.4, 0.5, 0.6})


def _order_kept_at_every_shift(c1, r1, c2, r2) -> bool:
    """Brute force: for every two ages in [0, 4000), one event of class
    ``(c1, r1)`` and one of ``(c2, r2)`` compare alike (less, equal or
    greater) at every common shift of both ages that stays in range."""
    decay = np.array(memory_stream._DECAY)
    # The ranking's own float expression, element by element.
    k1 = -(decay * c1 * r1)
    k2 = -(decay * c2 * r2)
    n = len(decay)
    for r0 in range(0, n - 1, 500):
        rows = k1[r0:min(r0 + 501, n), None]
        for cmp in (np.less, np.greater):
            rel = cmp(rows, k2)  # rel[a, b]: ages (r0 + a, b)
            if not (rel[:-1, :-1] == rel[1:, 1:]).all():
                return False
    return True


@pytest.mark.nightly
def test_behavior_classes_keep_order_at_every_shift():
    """The reuse guard against brute force (a few seconds): the model
    writes only ``BEHAVIOR_IMPORTANCES`` through the lunch hour, every
    pair of the eight classes keeps its order at every shift, the guard
    passes them all, and it refuses a near-tie pair that brute force
    shows flipping."""
    model = get_scenario("smallville").model(25, 7)
    for step in range(4700):
        model.step_all(step)
    seen = frozenset().union(*(a.memory._importances for a in model.agents))
    assert seen == BEHAVIOR_IMPORTANCES
    classes = sorted((0.5 + i, r) for i in BEHAVIOR_IMPORTANCES
                     for r in (1.1, 0.1))
    for a, (c1, r1) in enumerate(classes):
        for c2, r2 in classes[a:]:
            assert _order_kept_at_every_shift(c1, r1, c2, r2), (c1, r1, c2, r2)
            if (c1, r1) != (c2, r2):
                assert memory_stream._pair_shift_safe(c1 * r1, c2 * r2)
    assert memory_stream._shift_safe(BEHAVIOR_IMPORTANCES, 1)
    high = 0.6 * 0.999 ** -1
    assert not _order_kept_at_every_shift(0.6, 1.0, high, 1.0)
    assert not memory_stream._pair_shift_safe(0.6, high)


def _count_full_sorts(monkeypatch) -> list[int]:
    """Count ``MemoryStream``'s full sorts (its only ``sorted`` call)."""
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return sorted(*args, **kwargs)
    monkeypatch.setattr(memory_stream, "sorted", counted, raising=False)
    return count


class TestLazyStreams:
    def test_lazy_stream_equals_eager(self):
        for parts in ((0, "beh", 3, 17), (9, "chat", 1, 2, 4400),
                      (9, "turn", 1, 2, 4400, 2), (-3, "beh", -1, -40),
                      ("s", "turn", "a", -2, "b"), (7, "chat"), ("x",), ()):
            lazy, eager = fast_rng_for(*parts), FastRng(stable_seed(*parts))
            assert [lazy.random() for _ in range(3)] == \
                [eager.random() for _ in range(3)]
            assert [lazy.integers(2, 90) for _ in range(3)] == \
                [eager.integers(2, 90) for _ in range(3)]

    @pytest.mark.parametrize("parts", [
        (0, "beh", 3, 17), (9, "chat", 1, 2, 4400),
        (9, "turn", 1, 2, 4400, 2), (-3, "beh", -1, -40),
        ("s", "turn", "a", -2, "b"), (7, "spawn", 0), ("x",), ()])
    def test_stable_seed_is_the_per_part_hash(self, parts):
        """One ``blake2b`` call over the joined parts is the seed the
        per-part updates gave, for every stream tag the model keys."""
        assert stable_seed(*parts) == reference_stable_seed(*parts)

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
        # The copy carries kept rankings, not only events.
        assert sum(a.memory._ranked_for is not None
                   for a in model.agents) > 5
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
            stepped = lock.step_all(step)  # only the agents up
            assert calls == {aid: stepped.get(aid, []) for aid in calls}
            assert _snapshots(ooo) == _snapshots(lock)
        assert sum(a.awake for a in lock.agents) > 5


def _reference_step(model, step, agent_ids, lock_step=False):
    """``step_agents`` with its members picked by the scan the roster
    replaced (:func:`helpers.reference_up`); with ``lock_step``, keyed as
    ``step_all`` keys its result: the agents stepped only."""
    members = sorted(agent_ids)
    up = reference_up(model, step, members)
    calls = {a.agent_id: [] for a in up} if lock_step else \
        {aid: [] for aid in members}
    model._step_up(step, up, calls, _cluster_view(model, members))
    return calls


def _cluster_view(model, members):
    """The view ``step_agents`` takes of ``members`` before phase 1."""
    return behavior._StepStart(
        {}, [(aid, model.agents[aid].pos, None) for aid in members])


def _assert_roster_exact(model):
    assert model.roster == {a.agent_id for a in model.agents
                            if a.awake or a.conversation is not None}
    assert all(a._roster is model.roster for a in model.agents)


#: Warm-up checkpoints: the wake-up hour, lunch (conversations) and
#: bedtime (agents heading home and falling asleep).
_CHECKPOINTS = (2300, 4300, 7800)


@lru_cache(maxsize=None)
def _warmed(scenario):
    """``{checkpoint: model}``, warmed lock-step once per scenario; a
    test deep-copies the one it steps."""
    model = get_scenario(scenario).model(
        get_scenario(scenario).agents_per_segment, 6)
    saved = {}
    for step in range(_CHECKPOINTS[-1] + 1):
        if step in _CHECKPOINTS:
            saved[step] = copy.deepcopy(model)
        model.step_all(step)
    return saved


#: A step of the whole world, a step of it split into coupling-closed
#: subsets, an outside write of ``awake``, or a deep copy (rarer: a
#: bedtime world copies in ~50 ms).
_ROSTER_OPS = st.lists(st.one_of(
    st.just(("all",)),
    st.tuples(st.just("split"), st.integers(0, 2 ** 16)),
    st.tuples(st.just("awake"), st.integers(0, 10 ** 6), st.booleans()),
    st.integers(0, 3).map(lambda k: ("copy",) if k == 0 else ("all",))),
    min_size=4, max_size=24)


class TestRoster:
    """The roster picks the agents the per-step scan picked, whoever
    wrote ``awake`` and however the world was copied or split."""

    @pytest.mark.parametrize("scenario", ["smallville", "social-graph"])
    def test_bedtime_leaves_the_roster(self, scenario):
        """Lock-step from the bedtime checkpoint to midnight: every
        agent that falls asleep leaves the roster, and the roster's
        world equals the scan's."""
        model = copy.deepcopy(_warmed(scenario)[_CHECKPOINTS[-1]])
        twin = copy.deepcopy(model)
        ids = range(len(model.agents))
        fell_asleep = 0
        for step in range(_CHECKPOINTS[-1], STEPS_PER_DAY + 10):
            before = len(model.roster)
            assert model.step_all(step) == \
                _reference_step(twin, step, ids, lock_step=True)
            assert _snapshots(model) == _snapshots(twin)
            _assert_roster_exact(model)
            fell_asleep += len(model.roster) < before
        assert fell_asleep > 3 and not model.roster
        assert model.next_active_step(STEPS_PER_DAY + 10) == STEPS_PER_DAY \
            + min(a.persona.wake_step for a in model.agents)

    def test_a_sleeping_town_reads_nobody(self, monkeypatch):
        """10,000 agents asleep, none waking: ``step_all`` steps no
        agent and reads no persona, and ``next_active_step`` answers
        from the wake table. At a wake step, only the wakers step."""
        model = get_scenario("smallville").model(10_000, 1)
        reads, solo = [], []

        class CountingPersona:
            def __init__(self, persona):
                self._persona = persona

            def __getattr__(self, name):
                reads.append(name)
                return getattr(self._persona, name)

        for agent in model.agents:
            agent.persona = CountingPersona(agent.persona)
        real = BehaviorModel._step_solo
        monkeypatch.setattr(
            BehaviorModel, "_step_solo",
            lambda self, step, aid, out, view: solo.append(aid)
            or real(self, step, aid, out, view))
        first_wake = min(model._wake_steps)
        assert model.step_all(0) == {}
        assert model.next_active_step(1) == first_wake
        assert solo == [] and reads == []
        model.step_all(first_wake)
        assert sorted(solo) == sorted(model._wakers[first_wake])
        assert model.roster == model._wakers[first_wake]

    def test_an_outside_sleeper_in_a_chat_leaves_at_its_end(self):
        """``awake = False`` written mid-conversation keeps the agent up
        until the conversation ends, then drops it."""
        model = copy.deepcopy(_warmed("smallville")[4300])
        for step in range(4300, 5000):  # lunch
            model.step_all(step)
            if any(a.busy_chatting for a in model.agents):
                break
        step += 1
        agent = next(a for a in model.agents if a.busy_chatting)
        agent.awake = False
        assert agent.agent_id in model.roster
        while agent.busy_chatting:
            model.step_agents(step, [agent.agent_id, agent.conversation])
            step += 1
        assert agent.agent_id not in model.roster
        _assert_roster_exact(model)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["smallville", "social-graph"]),
           st.sampled_from(_CHECKPOINTS), _ROSTER_OPS)
    def test_matches_the_scan_it_replaces(self, scenario, start, ops):
        """Last in the class: a broken roster fails the tests above
        first, before Hypothesis spends minutes shrinking."""
        model = copy.deepcopy(_warmed(scenario)[start])
        twin = copy.deepcopy(model)
        _assert_roster_exact(model)
        step = start
        for op in ops:
            if op[0] == "awake":  # an outside write, on both worlds
                aid = op[1] % len(model.agents)
                model.agents[aid].awake = twin.agents[aid].awake = op[2]
                _assert_roster_exact(model)
                continue
            if op[0] == "copy":
                old = model.roster
                model = copy.deepcopy(model)
                assert model.roster is not old
                _assert_roster_exact(model)
                continue
            if op[0] == "all":
                groups = [range(len(model.agents))]
            else:  # coupling-closed subsets: unions of whole clusters
                rnd = random.Random(op[1])
                clusters = coupling_components(model, scenario)
                rnd.shuffle(clusters)
                cuts = sorted(rnd.sample(range(1, len(clusters) + 1),
                                         rnd.randint(1, len(clusters))))
                groups = [sum(clusters[lo:hi], []) for lo, hi
                          in zip([0] + cuts, cuts) if hi > lo]
            for group in groups:
                if op[0] == "all":
                    got = model.step_all(step)
                else:
                    got = model.step_agents(step, group)
                assert got == _reference_step(twin, step, group,
                                              lock_step=op[0] == "all")
                _assert_roster_exact(model)
            assert _snapshots(model) == _snapshots(twin)
            step += 1


class TestChatPairSweep:
    """The x-sweep returns the all-pairs list: same pairs, same order."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 60), st.integers(3, 40))
    def test_random_free_sets(self, seed, n_free, span):
        """Small spans force coincident tiles, equal x with different y
        and pairs at exactly ``CHAT_RADIUS`` (dx = 2 or dy = 2)."""
        model = _make_model(n_agents=1)
        rnd = random.Random(seed)
        free = [copy.copy(model.agents[0]) for _ in range(n_free)]
        for agent in free:
            agent.pos = (rnd.randrange(span), rnd.randrange(span // 3 + 1))
        want = reference_chat_pairs(free)
        got = model._chat_pairs(free)
        assert len(got) == len(want)
        assert all(a is c and b is d for (a, b), (c, d) in zip(got, want))

    def test_the_radius_is_inclusive_and_x_ties_are_kept(self):
        model = _make_model(n_agents=1)
        spots = [(5, 5), (7, 5), (5, 7), (5, 5), (8, 5), (6, 6), (7, 6)]
        free = [copy.copy(model.agents[0]) for _ in spots]
        for agent, pos in zip(free, spots):
            agent.pos = pos
        index = {id(agent): i for i, agent in enumerate(free)}
        pairs = [(index[id(a)], index[id(b)])
                 for a, b in model._chat_pairs(free)]
        assert pairs == [(index[id(a)], index[id(b)])
                         for a, b in reference_chat_pairs(free)]
        assert (0, 1) in pairs and (0, 2) in pairs and (0, 3) in pairs
        assert (0, 4) not in pairs and (2, 6) not in pairs

    @pytest.mark.parametrize("name", GRID_SCENARIOS)
    def test_wake_up_hour_of_every_grid_scenario(self, name, monkeypatch):
        model = get_scenario(name).model(40, 3)  # homes are shared
        sweep, seen = type(model)._chat_pairs, []

        def checked(self, free):
            got = sweep(self, free)
            assert got == reference_chat_pairs(free, self.CHAT_RADIUS)
            seen.append(len(got))
            return got
        monkeypatch.setattr(type(model), "_chat_pairs", checked)
        first = model.next_active_step(0)
        for step in range(first, first + 480):
            model.step_all(step)
        assert sum(seen) > 0


class TestNeighborsWithin:
    """At lunch, through the cell index (a lock-step view) and through a
    cluster of everyone, perception equals the scan of the step-start
    state; and someone is seen."""

    def _check(self, scenario):
        model = copy.deepcopy(_warmed(scenario)[4300])
        model._reindex()
        start = step_start(model)
        everyone = _cluster_view(model, range(len(model.agents)))
        indexed = behavior._StepStart({}, None)
        for a in model.agents:
            want = reference_perceived(model, a.agent_id, start)
            assert model._perceived(a.agent_id, indexed) == want
            assert model._perceived(a.agent_id, everyone) == want
        assert any(model._perceived(a.agent_id, indexed)
                   for a in model.agents)

    def test_equals_the_scan_in_id_order(self):
        self._check("smallville")

    def test_graph_world_equals_the_hop_scan(self):
        self._check("social-graph")

    def test_the_radius_is_inclusive(self):
        """Exactly ``PERCEPTION_RADIUS`` away is seen, one tile past it
        (across a cell edge) is not, through either view."""
        model = _make_model(n_agents=4)
        spots = [(50, 50), (54, 50), (54, 51), (52, 53)]  # d^2 16, 17, 13
        for agent, pos in zip(model.agents, spots):
            agent.pos = pos
        model._reindex()
        start = step_start(model)
        want = [(1, start[1][1]), (3, start[3][1])]
        for view in (_cluster_view(model, range(len(model.agents))),
                     behavior._StepStart({}, None)):
            assert model._perceived(0, view) == want


class TestVenueTable:
    @pytest.mark.parametrize("name", GRID_SCENARIOS)
    def test_every_tile_of_every_grid_map(self, name):
        world, _ = get_scenario(name).world()
        for y in range(world.height + 1):  # one row and column outside
            for x in range(-1, world.width + 1):
                assert world.venue_at(x, y) is reference_venue_at(world, x, y)

    def test_first_declared_venue_wins_an_overlap(self):
        w = GridWorld(20, 20)
        w.add_venue(Venue("first", 2, 2, 8, 8), walled=False)
        w.add_venue(Venue("second", 6, 6, 12, 12), walled=False)
        for x, y in [(2, 2), (7, 7), (8, 8), (9, 9), (12, 12), (13, 13)]:
            assert w.venue_at(x, y) is reference_venue_at(w, x, y)
        assert w.venue_at(7, 7).name == "first"
        assert w.venue_at(9, 9).name == "second"

    def test_add_venue_after_a_lookup_is_seen(self):
        w = GridWorld(20, 20)
        w.add_venue(Venue("A", 2, 2, 4, 4))
        assert w.venue_at(10, 10) is None  # builds the table
        w.add_venue(Venue("B", 9, 9, 11, 11))
        assert w.venue_at(10, 10).name == "B"
        assert w.venue_at(3, 3).name == "A"


def _random_walled_map(seed):
    """Random walls, a sealed pocket, and a walkable border to aim at."""
    rnd = random.Random(seed)
    w = GridWorld(rnd.randrange(8, 30), rnd.randrange(8, 24))
    w.walkable &= np.array([[rnd.random() > 0.28 for _ in range(w.width)]
                            for _ in range(w.height)])
    w.add_wall_rect(2, 2, 5, 5)  # no door: (3..4, 3..4) is a pocket
    w.walkable[3:5, 3:5] = True
    w.walkable[0, :] = True
    return w


class TestWavefrontFlood:
    @pytest.mark.parametrize("name", GRID_SCENARIOS)
    def test_every_venue_centre_of_every_grid_scenario(self, name):
        world, _ = get_scenario(name).world()
        planner = PathPlanner(world)
        for venue in world.venues.values():
            field = planner.distance_field(venue.center)
            assert field.dtype == np.int32
            assert np.array_equal(
                field, reference_distance_field(world, venue.center))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_walled_maps(self, seed):
        world = _random_walled_map(seed)
        rnd, rnd_tiles = random.Random(seed), FastRng(seed)
        for goal in [(rnd.randrange(world.width), 0), (3, 3)]:
            want = reference_distance_field(world, goal)
            planner = PathPlanner(world)
            field = planner.distance_field(goal)
            assert np.array_equal(field, want)
            # Unreachable both ways: the pocket from outside and back.
            unreachable = np.iinfo(np.int32).max
            assert (field[3, 3] == unreachable) == (goal != (3, 3))
            # Descent on the old field walks the same tiles.
            oracle = PathPlanner(world)
            oracle._fields[goal] = want
            for _ in range(5):
                start = world.random_walkable_tile(rnd_tiles)
                if want[start[1], start[0]] == unreachable:
                    continue
                assert planner.path(start, goal) == oracle.path(start, goal)

    def test_shared_fields_are_read_only(self):
        """One planner serves every segment and live ville of a process:
        a caller's in-place write must raise, not re-route later walks."""
        scn = get_scenario("smallville")
        world, homes = scn.world()
        field = scn.planner().distance_field(world.venue(homes[0]).center)
        with pytest.raises(ValueError):
            field[0, 0] = 0
        with pytest.raises(ValueError):
            field += 1
        scn.validate()  # its reachability count only reads


class TestDwellersReturnFirst:
    def test_one_stream_per_deciding_step(self, monkeypatch):
        """Through the wake-up hour and the walk to work: a ``beh``
        stream is keyed by exactly the up-steps that are neither
        dwelling nor a conversation turn (one per up-step before), and
        a dweller's step leaves it as it was, with no call."""
        model = _warm_model(2300, seed=4)  # a day with a morning chat
        keyed = []
        real = behavior.fast_rng_for
        monkeypatch.setattr(
            behavior, "fast_rng_for",
            lambda *parts: keyed.append(parts[1:]) or real(*parts))
        n_up = n_dwelling = n_turns = 0
        for step in range(2300, 2700):
            before = _snapshots(model)
            up = [a for a in model.agents if a.awake or a.busy_chatting
                  or a.persona.wake_step == step]
            turns = [a.agent_id for a in up if a.busy_chatting]
            dwelling = [a.agent_id for a in up if is_dwelling(a, step)]
            del keyed[:]
            calls = model.step_all(step)
            deciding = sorted({a.agent_id for a in up}
                              - set(turns) - set(dwelling))
            assert sorted(k[1:] for k in keyed if k[0] == "beh") == \
                [(aid, step) for aid in deciding]
            assert sorted(k[4] for k in keyed if k[0] == "turn") == turns
            after = _snapshots(model)
            for aid in dwelling:
                # (phase 2 may still start a conversation with it)
                if not model.agents[aid].busy_chatting:
                    assert after[aid] == before[aid] and calls[aid] == []
            n_up += len(up)
            n_dwelling += len(dwelling)
            n_turns += len(turns)
        assert n_dwelling > n_up // 2 and n_turns > 0
        assert n_up - n_dwelling - n_turns > 400

    def _dweller(self, model, step):
        return next(a for a in model.agents if is_dwelling(a, step)
                    and a.dwell_until > step + 1)

    def test_fields_set_from_outside_are_honoured_next_step(self):
        step = 2500
        base = _warm_model(step)
        aid = self._dweller(base, step).agent_id
        assert base.step_agents(step, [aid]) == {aid: []}

        model = copy.deepcopy(base)
        model.agents[aid].dwell_until = step + 1
        chain = model.step_agents(step + 1, [aid])[aid]
        assert chain and chain[0].func == "action_decide"

        model = copy.deepcopy(base)
        agent = model.agents[aid]
        far = next(v for v in model.world.venues.values()
                   if not v.contains(*agent.pos))
        agent.target_venue, pos = far.name, agent.pos
        model.step_agents(step + 1, [aid])
        assert agent.pos != pos

        model = copy.deepcopy(base)
        agent = model.agents[aid]
        agent.awake, agent.dwell_until = False, step + 1
        before = agent_snapshot(agent)
        assert model.step_agents(step + 1, [aid]) == {aid: []}
        assert agent_snapshot(agent) == before

        model = copy.deepcopy(base)
        agent = model.agents[aid]
        agent.memory.importance_since_reflection = 12.5
        agent.last_reflection = step - 200
        chain = model.step_agents(step + 1, [aid])[aid]
        assert [c.func for c in chain][0] == "reflect_insight"
        assert agent.last_reflection == step + 1

    def test_awake_is_read_and_a_sleeping_block_retargets_nobody(
            self, monkeypatch):
        model = _make_model(n_agents=1)
        agent = model.agents[0]
        wake = agent.persona.wake_step
        # Asleep at its wake step, whatever the other fields say: it wakes.
        agent.dwell_until = STEPS_PER_DAY
        agent.activity = agent.persona.block_at(wake).activity
        assert model.step_agents(wake, [0])[0][0].func == "daily_plan"
        # Up before its first block ("sleeping" until ``wake``): waits.
        model = _make_model(n_agents=1)
        agent = model.agents[0]
        agent.awake, agent.activity, agent.dwell_until = True, "reading", wake
        assert is_dwelling(agent, wake - 5)
        keyed = []
        monkeypatch.setattr(behavior, "fast_rng_for",
                            lambda *parts: keyed.append(parts))
        assert model.step_agents(wake - 5, [0]) == {0: []}
        assert keyed == [] and agent.activity == "reading"

    def test_a_new_routine_block_ends_the_dwell(self):
        """The block clause: a dweller whose schedule moved on retargets
        even though ``dwell_until`` has not come."""
        step = 2500
        model = _warm_model(step)
        agent = self._dweller(model, step)
        agent.dwell_until = STEPS_PER_DAY
        block = agent.persona.block_at(step)
        later = next(e for e in agent.persona.schedule
                     if e.start_step > step and e.activity != block.activity)
        assert is_dwelling(agent, later.start_step - 1)
        assert not is_dwelling(agent, later.start_step)
        model.step_agents(later.start_step, [agent.agent_id])
        assert agent.activity == later.activity

    def test_bedtime_ends_the_dwell(self):
        model = _warm_model(2500)
        agent = self._dweller(model, 2500)
        agent.dwell_until = 2 * STEPS_PER_DAY
        sleep = agent.persona.sleep_step
        agent.activity = agent.persona.block_at(sleep - 1).activity
        model.step_agents(sleep - 1, [agent.agent_id])
        assert agent.activity != "heading home" and agent.awake
        model.step_agents(sleep, [agent.agent_id])
        assert agent.activity in ("heading home", "sleeping")
