"""Tests for §3.4 geo-clustering and the spatial index."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clustering import SpatialIndex, geo_clustering
from repro.core.space import EuclideanSpace, GraphSpace

from helpers import brute_force_clustering


class TestSpatialIndex:
    def setup_method(self):
        self.idx = SpatialIndex(EuclideanSpace(), cell=5.0)

    def test_bulk_load_and_query(self):
        self.idx.bulk_load([("a", (0, 0)), ("b", (3, 4)), ("c", (30, 30))])
        assert sorted(self.idx.query((0, 0), 5.0)) == ["a", "b"]

    def test_query_inclusive_boundary(self):
        self.idx.bulk_load([("a", (5, 0))])
        assert self.idx.query((0, 0), 5.0) == ["a"]
        assert self.idx.query((0, 0), 4.999) == []

    def test_bad_cell(self):
        with pytest.raises(ValueError):
            SpatialIndex(EuclideanSpace(), cell=0)

    def test_graph_space_walks_cell_window(self):
        path = {i: [j for j in (i - 1, i + 1) if 0 <= j <= 5]
                for i in range(6)}
        idx = SpatialIndex(GraphSpace(path), cell=1.0)
        idx.bulk_load([("x", 0), ("y", 3)])
        assert sorted(idx.query(0, 3.0)) == ["x", "y"]
        assert idx.query_into(0, 1.0, []) == ["x"]


class TestGeoClustering:
    def test_singletons_when_far(self):
        clusters = geo_clustering(
            [0, 1, 2], [(0, 0), (100, 0), (200, 0)], EuclideanSpace(), 5.0)
        assert clusters == [[0], [1], [2]]

    def test_pairs_within_threshold(self):
        clusters = geo_clustering(
            [0, 1, 2], [(0, 0), (3, 0), (100, 0)], EuclideanSpace(), 5.0)
        assert clusters == [[0, 1], [2]]

    def test_transitive_chaining(self):
        # 0-1 close, 1-2 close, 0-2 far: all one cluster.
        clusters = geo_clustering(
            [0, 1, 2], [(0, 0), (4, 0), (8, 0)], EuclideanSpace(), 5.0)
        assert clusters == [[0, 1, 2]]

    def test_empty(self):
        assert geo_clustering([], [], EuclideanSpace(), 5.0) == []

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            geo_clustering([0, 1], [(0, 0)], EuclideanSpace(), 5.0)

    def test_every_agent_exactly_once(self):
        ids = list(range(10))
        positions = [(i * 3, 0) for i in ids]
        clusters = geo_clustering(ids, positions, EuclideanSpace(), 5.0)
        flattened = sorted(aid for c in clusters for aid in c)
        assert flattened == ids

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9), n=st.integers(1, 40),
           threshold=st.floats(0.5, 12.0))
    def test_matches_brute_force(self, seed, n, threshold):
        from repro._util import FastRng
        rng = FastRng(seed)
        ids = list(range(n))
        positions = [(rng.integers(0, 40), rng.integers(0, 40))
                     for _ in range(n)]
        space = EuclideanSpace()
        fast = geo_clustering(ids, positions, space, threshold)
        slow = brute_force_clustering(ids, positions, space, threshold)
        assert fast == slow
