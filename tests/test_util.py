"""Tests for repro._util."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro._util import (FastRng, Pcg64, UnionFind, fast_rng_for, rng_for,
                         stable_seed)


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


def _draws(rng, n=4):
    return [rng.random() for _ in range(n)]


class TestRngFor:
    def test_same_key_same_stream(self):
        a = _draws(rng_for(5, "agent", 3))
        b = _draws(rng_for(5, "agent", 3))
        assert a == b

    def test_different_keys_differ(self):
        a = _draws(rng_for(5, "agent", 3))
        b = _draws(rng_for(5, "agent", 4))
        assert a != b


#: One seed's draws, ``None`` for ``random()`` and ``(lo, hi)`` for
#: ``integers(lo, hi)``: an odd number of 32-bit draws between two
#: ``random()`` calls (the owed upper half must survive them), width 1
#: (no draw), width 2**32 (a raw 32-bit draw), width 3 * 2**30 (a
#: quarter of the draws rejected) and negative bounds.
_PATTERN = (
    (0, 10), None, (-7, 5), (0, 3 << 30), None, (-(1 << 31), 1 << 31),
    (3, 4), (0, 25), None, (-1000, -10), (0, 3 << 30), (0, 1 << 32),
    (5, 6), (0, 1000),
)


class TestPcg64MatchesNumpy:
    """``Pcg64`` is numpy's ``Generator(PCG64(seed))`` draw for draw:
    the trace goldens were taken with numpy's stream."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, *range(2, 40),
             *(stable_seed(k, "equivalence") for k in range(1000))]

    def test_interleaved_draws_equal_numpy(self):
        mismatched = []
        for seed in self.SEEDS:
            ours = Pcg64(seed)
            ref = np.random.Generator(np.random.PCG64(seed))
            for k, draw in enumerate(_PATTERN):
                if draw is None:
                    got, want = ours.random(), ref.random()
                else:
                    got, want = ours.integers(*draw), int(ref.integers(*draw))
                if got != want:
                    mismatched.append((seed, k, draw, got, want))
                    break
        assert not mismatched, mismatched[:5]

    def test_rejection_path_is_exercised(self):
        """Width 3 * 2**30 rejects a draw for some seed, so the pattern
        above really compares the rejection loop."""
        class Counting(Pcg64):
            pulls = 0

            def _next32(self):
                self.pulls += 1
                return super()._next32()

        rejected = 0
        for seed in self.SEEDS[:200]:
            rng = Counting(seed)
            rng.integers(0, 3 << 30)
            rejected += rng.pulls - 1
        assert rejected > 0

    def test_rng_for_is_numpy_keyed_by_stable_seed(self):
        ref = np.random.Generator(np.random.PCG64(stable_seed(5, "agent", 3)))
        rng = rng_for(5, "agent", 3)
        assert [rng.random(), rng.integers(0, 100)] == \
            [ref.random(), int(ref.integers(0, 100))]

    def test_range_wider_than_32_bits_raises(self):
        rng = Pcg64(1)
        assert rng.integers(0, 1 << 32) >= 0
        with pytest.raises(ValueError, match="wider than 2"):
            rng.integers(0, (1 << 32) + 1)

    @pytest.mark.parametrize("lo, hi", [(5, 5), (5, 4)])
    def test_empty_range_raises(self, lo, hi):
        with pytest.raises(ValueError, match="empty range"):
            Pcg64(1).integers(lo, hi)

    @pytest.mark.parametrize("seed", [-1, 1 << 128])
    def test_seed_out_of_range_raises(self, seed):
        with pytest.raises(ValueError, match="seed"):
            Pcg64(seed)


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

