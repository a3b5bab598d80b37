"""Tests for repro._util."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro._util import FastRng, UnionFind, fast_rng_for, rng_for, stable_seed


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed(1, "a", 2) == stable_seed(1, "a", 2)

    def test_order_sensitive(self):
        assert stable_seed(1, 2) != stable_seed(2, 1)

    def test_part_boundaries_matter(self):
        # ("ab", "c") must differ from ("a", "bc")
        assert stable_seed("ab", "c") != stable_seed("a", "bc")

    def test_nonnegative_63_bit(self):
        for parts in [(0,), ("x", 1), (12345, "y", 7)]:
            seed = stable_seed(*parts)
            assert 0 <= seed < 2**63

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=5))
    def test_hypothesis_deterministic(self, parts):
        assert stable_seed(*parts) == stable_seed(*parts)


class TestRngFor:
    def test_same_key_same_stream(self):
        a = rng_for(5, "agent", 3).random(4)
        b = rng_for(5, "agent", 3).random(4)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = rng_for(5, "agent", 3).random(4)
        b = rng_for(5, "agent", 4).random(4)
        assert not np.array_equal(a, b)


class TestFastRng:
    def test_deterministic(self):
        r1, r2 = FastRng(42), FastRng(42)
        assert [r1.random() for _ in range(10)] == \
            [r2.random() for _ in range(10)]

    def test_random_in_unit_interval(self):
        rng = FastRng(7)
        for _ in range(1000):
            x = rng.random()
            assert 0.0 <= x < 1.0

    def test_integers_bounds(self):
        rng = FastRng(1)
        values = [rng.integers(3, 9) for _ in range(500)]
        assert min(values) >= 3
        assert max(values) <= 8

    def test_integers_rejects_empty_range(self):
        with pytest.raises(ValueError):
            FastRng(0).integers(5, 5)

    def test_rough_uniformity(self):
        rng = FastRng(99)
        counts = [0] * 8
        for _ in range(8000):
            counts[rng.integers(0, 8)] += 1
        assert min(counts) > 800  # each bin ~1000

    def test_fast_rng_for_keyed(self):
        assert fast_rng_for(1, "x").random() == fast_rng_for(1, "x").random()
        assert fast_rng_for(1, "x").random() != fast_rng_for(1, "y").random()


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind(4)
        assert len({uf.find(i) for i in range(4)}) == 4

    def test_union_merges(self):
        uf = UnionFind(4)
        assert uf.union(0, 1)
        assert uf.find(0) == uf.find(1)

    def test_union_idempotent(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        assert not uf.union(1, 0)

    def test_groups(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(3, 4)
        groups = sorted(sorted(g) for g in uf.groups(range(5)))
        assert groups == [[0, 1], [2], [3, 4]]

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    max_size=30))
    def test_matches_naive_partition(self, pairs):
        uf = UnionFind(10)
        naive = {i: {i} for i in range(10)}
        for a, b in pairs:
            uf.union(a, b)
            merged = naive[a] | naive[b]
            for m in merged:
                naive[m] = merged
        for i in range(10):
            for j in range(10):
                assert (uf.find(i) == uf.find(j)) == (j in naive[i])

