"""Tests for the §3.6 hot-path overhaul: the array-backed dependency
graph against a dict-based reference model (randomized commit-order
fuzz, grid and graph metrics), the graph-native coupling components,
the single-event round loop's kernel-event budget, the buffered spatial
queries, and the hotpath benchmark harness.
"""

import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro._util import FastRng
from repro.config import DependencyConfig
from repro.core import DependencyRules
from repro.core.clustering import SpatialIndex
from repro.core import dependency_graph
from repro.core.dependency_graph import SpatioTemporalGraph
from repro.core.space import EuclideanSpace
from repro.errors import CausalityViolation, SchedulingError
from repro.scenarios import scenario_names

from helpers import (grid_moves, grid_positions, random_trace, ring_space,
                     slot_snapshot, tree_chord_space)


class DictReferenceGraph:
    """From-scratch, dict-based model of the dependency graph.

    Everything is recomputed on demand from the §3.2 predicates — no
    incremental bookkeeping, no spatial pruning — so any divergence in
    the array-backed implementation's caches shows up as a mismatch.
    """

    def __init__(self, rules, positions, start_step=0):
        self.rules = rules
        self.step = {aid: start_step for aid in positions}
        self.pos = dict(positions)
        self.running = {aid: False for aid in positions}

    def blockers(self, aid):
        return {b for b in self.pos
                if b != aid and self.rules.blocked(
                    self.pos[aid], self.step[aid],
                    self.pos[b], self.step[b])}

    def commit(self, members, new_positions):
        members = set(members)
        blocked_before = {a: bool(self.blockers(a)) for a in self.pos}
        for m in members:
            assert self.running[m], "reference: commit of a non-running"
            self.running[m] = False
            self.step[m] += 1
            self.pos[m] = new_positions[m]
        unblocked = {a for a in self.pos
                     if not self.blockers(a)
                     and (a in members or blocked_before[a])}
        return unblocked, {m: self.coupling_candidates(m) for m in members}

    def coupling_candidates(self, aid):
        """Same-step, non-running agents within coupling range."""
        couple = self.rules.couple_threshold
        dist = self.rules.space.dist
        return {b for b in self.pos
                if b != aid and self.step[b] == self.step[aid]
                and not self.running[b]
                and dist(self.pos[aid], self.pos[b]) <= couple}


def _ref_component(ref, rules, aid):
    """Fresh BFS of ``aid``'s coupling component over the dict reference."""
    step = ref.step[aid]
    comp = {aid}
    frontier = [aid]
    while frontier:
        x = frontier.pop()
        for other in ref.pos:
            if (other not in comp and not ref.running[other]
                    and ref.step[other] == step
                    and rules.coupled(ref.pos[x], ref.pos[other])):
                comp.add(other)
                frontier.append(other)
    return sorted(comp)


def _random_cluster(graph, rules, rng, n, exclude=frozenset()):
    """A dispatchable coupled cluster under ``graph``, or None."""
    order = sorted(range(n), key=lambda _: rng.random())
    for seed_aid in order:
        if (seed_aid in exclude or graph.running[seed_aid]
                or graph.is_blocked(seed_aid)):
            continue
        cluster = {seed_aid}
        frontier = [seed_aid]
        while frontier:
            x = frontier.pop()
            for other in range(n):
                if (other not in cluster
                        and not graph.running[other]
                        and graph.step[other] == graph.step[x]
                        and rules.coupled(graph.pos[x], graph.pos[other])):
                    cluster.add(other)
                    frontier.append(other)
        if any(graph.is_blocked(m) for m in cluster):
            continue
        return sorted(cluster)
    return None


def _commit_both(graph, ref, batch, new_pos, movers_only=False):
    """Commit ``batch`` on the graph and the dict reference; compare.

    Also the coupling-candidate theorem as a checked invariant: each
    member's brute-force same-step ready neighbours are batch peers or
    were its waiters before the release.
    """
    waiters_before = {m: set(graph.waiters[m]) for m in batch}
    result = graph.commit(batch, {m: p for m, p in new_pos.items()
                                  if p != graph.pos[m]}
                          if movers_only else new_pos)
    ref_unblocked, ref_member = ref.commit(batch, new_pos)
    assert result.unblocked == ref_unblocked
    assert set(result.member_neighbors) == set(ref_member)
    for m, lst in result.member_neighbors.items():
        assert set(lst) == ref_member[m], \
            f"member {m} coupling candidates diverged"
        assert ref_member[m] <= set(batch) | waiters_before[m], \
            f"member {m} couples to neither a batch peer nor a waiter"


def _assert_graph_matches_reference(graph, ref, n):
    """Blocked edges, waiters, min/max step == dict reference."""
    for aid in range(n):
        if not graph.running[aid]:
            assert graph.blocked_by[aid] == ref.blockers(aid), \
                f"agent {aid} blockers diverged"
    # waiters must be the exact inverse of blocked_by
    for b in range(n):
        assert graph.waiters[b] == {
            a for a in range(n) if b in graph.blocked_by[a]}
    assert graph.min_step == min(ref.step.values())
    assert graph.max_step == max(ref.step.values())


def _assert_fastpath_invariants(graph, ref, rules, n):
    """The zero-rescan machinery's conservative bounds hold exactly.

    Pins the slack-bound scan licence, the near sets and the step-bucket
    slot table against the from-scratch reference.
    """
    mv = rules.max_vel
    for aid in range(n):
        if graph.running[aid]:
            continue
        s = graph.step[aid]
        # max_vel of threshold growth per own commit since the scan,
        # max_vel of approach per commit that moved the agent.
        shrink = mv * (s - graph._scan_step[aid] + graph._scan_moves[aid])
        near = graph._near[aid]
        # Scan-skip licence: while the recorded slack outlasts the
        # worst-case shrink, the agent provably has no blockers.
        if near is not None and shrink < graph._scan_slack[aid]:
            assert ref.blockers(aid) == set(), \
                f"agent {aid} skip licence is unsound"
        # Near-set licence: within the horizon, only near members block.
        if near is not None and shrink <= graph._slack_horizon:
            assert ref.blockers(aid) <= set(near), \
                f"agent {aid} has a blocker outside its near set"
    # Step-bucket migration: the slot table is exactly the partition of
    # agents by (step, cell), and every live slot is correctly keyed.
    cell = graph.index.cell
    expected = {}
    for aid in range(n):
        p = graph.pos[aid]
        key = (graph.step[aid],) + rules.space.bucket(p, cell)
        expected.setdefault(key, set()).add(aid)
    assert slot_snapshot(graph) == expected
    # Banded layout: every live key sits in the band derived from its
    # cell, the parallel columns agree with the key, and the per-band
    # tables are exactly the live keys (no leaked empty slots/bands).
    B = graph._band
    for key, (band, idx) in graph._bslot.items():
        assert graph._bands[(key[1] // B, key[2] // B)] is band
        assert band.keys[idx] == key
        assert (band.steps[idx], band.xs[idx], band.ys[idx]) == key
    live_slots = sum(len(b.steps) for b in graph._bands.values())
    assert live_slots == len(graph._bslot)
    assert all(b.steps for b in graph._bands.values())


def _assert_window_keys_fresh(graph, rules):
    """Every off-grid window-key list an agent holds equals one built
    from ``cell_window`` at its current position, first axis outer.
    Returns how many lists were checked (0 on grids, which cache none).
    """
    if graph._wkeys is None:
        return 0
    checked = 0
    for aid, keys in enumerate(graph._wkeys):
        if keys is None:
            continue
        x0, x1, y0, y1 = rules.space.cell_window(
            graph.pos[aid], rules.couple_threshold, graph.index.cell)
        assert keys == [(bx, by) for bx in range(x0, x1 + 1)
                        for by in range(y0, y1 + 1)], \
            f"agent {aid} holds stale window keys"
        checked += 1
    return checked


def banded_graph(rules, positions, band_size=None):
    """A graph built with ``band_size`` fine cells per band (``None``
    keeps ``BAND_CELLS``): the module constant is patched only while
    the graph reads it, at construction."""
    with pytest.MonkeyPatch.context() as mp:
        if band_size is not None:
            mp.setattr(dependency_graph, "BAND_CELLS", band_size)
        return SpatioTemporalGraph(rules, positions)


def _run_commit_fuzz(rules, positions, move_candidates, rng, n,
                     iters=40, band_size=None, whole_first=False,
                     stay_p=None):
    """Shared fuzz body: random batched commits vs the dict reference.

    ``move_candidates(pos)`` returns the legal next positions of an
    agent at ``pos`` (must respect ``max_vel`` in the rules' metric).
    ``band_size`` stresses the banded slot table: 1 maximizes the
    band-window walk, a huge value degenerates to one global band
    (the unbanded reference layout) — blocked edges must be bit-equal
    to the dict reference either way. ``whole_first`` makes the first
    batch the **whole population** (every step-0 agent is free): the
    lock-step / whole-shard commit shape, far above the 1-3 clusters
    the random batches reach. ``stay_p`` makes a member keep its
    position with that probability (the replay workloads' common case:
    94-98% of agent-steps) and feeds ``commit`` the movers-only mapping
    on odd iterations, the full mapping on even ones.

    The coupling-candidate theorem (``dependency_graph`` docstring) is
    checked as an invariant in its own right (``_commit_both``), not
    only through its consequence: after every commit each member's
    brute-force same-step ready neighbours are batch peers or were its
    waiters before the release. Mutation checks: a ``_neighbors_fast``
    that ignores the waiters (skips the join on "no batch peer" alone)
    fails ``test_randomized_commit_order`` in all nine cells, the
    graph-metric fuzz and the abort fuzz; one that ignores the peers
    (skips on "no same-step waiter" alone) fails 39 of the 42 cells of
    this fuzz and the abort fuzz.

    Mutation check: charging a mover 0 instead of ``max_vel`` (dropping
    the ``_scan_moves`` increment in ``commit``) fails this fuzz
    at its default move rate (``test_randomized_commit_order``, every
    coordinate metric and band size) — a walker's skip licence then
    outlives its slack; at ``stay_p >= 0.9`` moves are too rare to
    reach it, so ``test_walker_is_charged_for_its_moves`` pins it
    deterministically.

    Returns how many cached off-grid window-key lists the per-commit
    freshness check compared (``_assert_window_keys_fresh``).
    """
    graph = banded_graph(rules, positions, band_size)
    ref = DictReferenceGraph(rules, positions)
    checked = 0

    batch: list[int] = []

    def launch(members):
        graph.mark_running(members)
        for m in members:
            ref.running[m] = True
        batch.extend(members)

    for it in range(iters):
        # Batched commits: retire 1-3 disjoint dispatchable clusters
        # through a single graph.commit, like the coalesced flush does.
        batch.clear()
        if whole_first and it == 0:
            launch(list(range(n)))
        else:
            for _attempt in range(rng.integers(1, 4)):
                members = _random_cluster(graph, rules, rng, n,
                                          exclude=set(batch))
                if members is not None:
                    launch(members)
        if not batch:
            members = _random_cluster(graph, rules, rng, n)
            assert members is not None, "graph deadlocked"
            launch(members)
        new_pos = {}
        for m in batch:
            if stay_p is not None and rng.random() < stay_p:
                new_pos[m] = graph.pos[m]
                continue
            cands = move_candidates(graph.pos[m])
            new_pos[m] = cands[rng.integers(0, len(cands))]
        # 1. identical unblock candidates, split exactly as commit
        #    reports them — per-member coupling candidates included
        _commit_both(graph, ref, batch, new_pos,
                     movers_only=stay_p is not None and it % 2)
        # 2. identical blocked edges / waiters / min-max step
        _assert_graph_matches_reference(graph, ref, n)
        # 3. the zero-rescan bounds stay conservative
        _assert_fastpath_invariants(graph, ref, rules, n)
        # 4. graph-native coupling components == fresh reference BFS
        #    after every commit (seeded by the candidates above)
        for aid in range(n):
            if not graph.running[aid]:
                assert graph.component_for(aid, set()) == \
                    _ref_component(ref, rules, aid), \
                    f"agent {aid} component diverged"
        # 5. off the grid, every cached window-key list is still fresh
        checked += _assert_window_keys_fresh(graph, rules)
    return checked


def _metric_world(metric, rng, n, nodes, **box):
    """``(rules, positions, move_candidates)`` of a fuzz on ``metric``:
    a ``nodes``-node tree-with-chords for ``"graph"``, else the grid
    box ``grid_positions`` takes."""
    if metric != "graph":
        return (DependencyRules(DependencyConfig(metric=metric)),
                grid_positions(rng, n, **box), grid_moves)
    space, adj = tree_chord_space(rng, nodes)
    rules = DependencyRules(
        DependencyConfig(radius_p=1.0, max_vel=1.0, metric="graph"),
        space=space)
    positions = {i: (rng.integers(0, nodes), 0) for i in range(n)}
    return rules, positions, lambda pos: [pos, *adj[pos]]  # stay or hop


class TestGraphMatchesReferenceModel:
    """The ISSUE's fuzz gate: array-backed graph == dict reference."""

    @pytest.mark.parametrize("metric", ["euclidean", "chebyshev",
                                        "manhattan"])
    @pytest.mark.parametrize("band_size", [None, 1, 10**9])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**9), n=st.integers(2, 12))
    def test_randomized_commit_order(self, metric, band_size, seed, n):
        rng = FastRng(seed)
        rules = DependencyRules(DependencyConfig(metric=metric))
        positions = grid_positions(rng, n)
        _run_commit_fuzz(rules, positions, grid_moves, rng, n,
                         band_size=band_size)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9), n=st.integers(2, 10),
           v=st.integers(6, 24))
    def test_randomized_commit_order_graph_metric(self, seed, n, v):
        """Same gate on hop-distance worlds: the landmark-bucketed fast
        path (cells from ``GraphSpace.bucket``) and graph-native
        components must all match the dict reference exactly."""
        rng = FastRng(seed)
        space, adj = tree_chord_space(rng, v)
        rules = DependencyRules(
            DependencyConfig(radius_p=1.0, max_vel=1.0, metric="graph"),
            space=space)
        positions = {i: (rng.integers(0, v), 0) for i in range(n)}

        def moves(pos):
            return [pos, *adj[pos]]  # stay or one hop (max_vel=1)

        _run_commit_fuzz(rules, positions, moves, rng, n, iters=30)

    @pytest.mark.parametrize("metric", ["euclidean", "chebyshev",
                                        "manhattan", "graph"])
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10**9), n=st.integers(16, 64))
    def test_whole_population_first_batch(self, metric, seed, n):
        """Large batches take the same fused per-member path as small
        ones: a first commit of all ``n`` agents packed into a few
        cells (dense buckets, many shared ``(step, cell)`` slots), then
        ordinary random batches on the state it leaves behind."""
        rng = FastRng(seed)
        rules, positions, moves = _metric_world(
            metric, rng, n, 8, x_lo=40, x_hi=64, y_lo=0, y_hi=24)
        _run_commit_fuzz(rules, positions, moves, rng, n, iters=4,
                         whole_first=True)

    @pytest.mark.parametrize("metric", ["euclidean", "chebyshev",
                                        "manhattan", "graph"])
    @pytest.mark.parametrize("band_size", [None, 1, 10**9])
    @pytest.mark.parametrize("stay_p", [0.9, 1.0])
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10**9), n=st.integers(2, 12))
    def test_mostly_stationary_commits(self, metric, band_size, stay_p,
                                       seed, n):
        """The replay workloads' common case: members that do not move,
        handed over as a movers-only mapping or as a full one."""
        rng = FastRng(seed)
        rules, positions, moves = _metric_world(metric, rng, n, 12)
        _run_commit_fuzz(rules, positions, moves, rng, n,
                         band_size=band_size, stay_p=stay_p)

    def test_distant_laggard_pruned_until_it_blocks(self):
        """Wide step spread: the coarse min-step prune must never hide a
        far laggard whose blocking sphere finally reaches the leader."""
        rules = DependencyRules(DependencyConfig())
        positions = {0: (0.0, 0.0), 1: (150.0, 0.0)}  # distinct coarse cells
        graph = SpatioTemporalGraph(rules, positions)
        ref = DictReferenceGraph(rules, positions)
        for _ in range(160):
            if graph.is_blocked(1):
                break
            graph.mark_running([1])
            ref.running[1] = True
            graph.commit([1], {1: (150.0, 0.0)})
            ref.commit([1], {1: (150.0, 0.0)})
            assert graph.blocked_by[1] == ref.blockers(1)
        # blocked exactly when (gap + 1) * max_vel + radius_p >= 150,
        # i.e. the commit that lands the leader on step 145
        assert graph.is_blocked(1)
        assert graph.step[1] == 145
        assert graph.blockers_of(1) == frozenset({0})

    def test_dense_ids_required(self):
        rules = DependencyRules(DependencyConfig())
        with pytest.raises(SchedulingError):
            SpatioTemporalGraph(rules, {0: (0, 0), 2: (5, 0)})


class TestGraphNativeComponents:
    """Coupling components are one BFS inside the graph, seeded by the
    latest commit's per-member candidates (no memo, nothing to
    invalidate)."""

    def _graph(self):
        rules = DependencyRules(DependencyConfig())
        positions = {0: (0, 0), 1: (2, 0), 2: (50, 0), 3: (52, 0),
                     4: (200, 0)}
        return rules, SpatioTemporalGraph(rules, positions)

    def test_component_same_from_every_seed(self):
        _, graph = self._graph()
        assert graph.component_for(0, set()) == [0, 1]
        assert graph.component_for(1, set()) == [0, 1]
        assert graph.component_for(4, set()) == [4]

    def test_dispatch_and_commit_need_no_invalidation(self):
        _, graph = self._graph()
        graph.component_for(0, set())
        graph.mark_running([0])
        assert graph.component_for(1, set()) == [1]  # 0 left the pool
        graph.abort_running([0])
        assert graph.component_for(1, set()) == [0, 1]
        graph.mark_running([0, 1])
        graph.commit([0, 1], {0: (0, 0), 1: (2, 0)})
        # both moved a step: batch peers, found through the join
        assert graph.component_for(0, set()) == [0, 1]

    def test_commit_next_to_another_step_couples_nothing(self):
        _, graph = self._graph()
        graph.mark_running([4])
        # 4 lands within coupling range of 3 but one step ahead of it:
        # no same-step peer, no same-step waiter, so no spatial query
        # runs for it and it is a component of one; 2/3 do not see it.
        result = graph.commit([4], {4: (53, 0)})
        assert result.member_neighbors == {4: ()}
        assert graph.component_for(4, set()) == [4]
        assert graph.component_for(2, set()) == [2, 3]
        assert graph.blockers_of(4) == frozenset({2, 3})

    def test_laggard_catching_up_couples_through_its_waiters(self):
        _, graph = self._graph()
        graph.mark_running([2])
        graph.commit([2], {})
        assert graph.waiters[3] == {2}  # one step ahead, in range
        graph.mark_running([3])
        result = graph.commit([3], {})
        assert result.member_neighbors == {3: [2]}
        assert result.unblocked == {2, 3}
        assert graph.component_for(3, set()) == [2, 3]

    def test_visited_collects_the_component(self):
        _, graph = self._graph()
        visited: set[int] = set()
        graph.component_for(0, visited)
        assert visited == {0, 1}

    @pytest.mark.parametrize("seeded", [False, True],
                             ids=["index", "commit"])
    def test_running_neighbour_trips_strict_search(self, seeded):
        """A running same-step agent in coupling range of a ready one
        cannot arise under the rules; hand-built, the tripwire names it
        whether candidates come from the index or from a commit."""
        _, graph = self._graph()
        if seeded:
            graph.mark_running([0, 1])
            graph.commit([0, 1], {})
        graph.running[1] = True
        assert graph.component_for(0, set()) == [0]
        with pytest.raises(SchedulingError, match="coupling invariant"):
            graph.component_for(0, set(), True)


class TestSpatialIndexBuffers:
    def test_query_into_reuses_buffer(self):
        index = SpatialIndex(EuclideanSpace(), cell=5.0)
        index.bulk_load((i, (float(i), 0.0)) for i in range(20))
        buf = []
        got = index.query_into((0.0, 0.0), 3.0, buf)
        assert got is buf
        assert sorted(buf) == [0, 1, 2, 3]
        index.query_into((10.0, 0.0), 1.0, buf)
        assert sorted(buf) == [9, 10, 11]  # cleared between queries

    def test_wide_query_crossover_matches_stencil(self):
        rng = FastRng(3)
        index = SpatialIndex(EuclideanSpace(), cell=5.0)
        pts = {i: (rng.integers(0, 400), rng.integers(0, 300))
               for i in range(120)}
        index.bulk_load(pts.items())
        space = EuclideanSpace()
        for radius in (4.0, 60.0, 500.0):  # stencil, crossover, all
            got = sorted(index.query((200, 150), radius))
            want = sorted(i for i, p in pts.items()
                          if space.dist((200, 150), p) <= radius)
            assert got == want


class TestHotpathBench:
    @pytest.fixture(autouse=True)
    def short_generation_day(self, monkeypatch):
        """Every report carries a ``generation`` block; here its "day"
        ends in the wake-up hour (the real one runs 8,640 steps)."""
        from repro.bench import hotpath as hp
        from repro.trace import generate_trace

        def short_day(seed, scenario):
            return generate_trace(None, 2300, seed, scenario)

        monkeypatch.setattr(hp, "generate_trace", short_day)
        return short_day

    def test_report_shape_and_throughput(self, tmp_path):
        from repro.bench.hotpath import run_hotpath

        out = tmp_path / "hp.json"
        report = run_hotpath(scenarios=["smallville"], agent_counts=(5,),
                             out=out)
        assert out.exists()
        assert report["calibration_ops_per_sec"] > 0
        assert report["calibration_after_ops_per_sec"] > 0
        entry = report["entries"][0]
        assert entry["scenario"] == "smallville"
        assert entry["agent_steps"] == entry["n_agents"] * entry["n_steps"]
        assert entry["agent_steps_per_sec"] > 0
        assert entry["controller_time_s"] == pytest.approx(
            entry["time_clustering_s"] + entry["time_graph_s"]
            + entry["time_dispatch_s"])
        assert entry["controller_rounds"] > 0
        assert not any("speedup_vs_" in key for key in entry)

    def test_throughput_floor_is_a_raw_sanity_bound(self, monkeypatch):
        from repro.bench import hotpath as hp

        report = hp.run_hotpath(scenarios=["smallville"], agent_counts=(5,))
        monkeypatch.setattr(hp, "MIN_THROUGHPUT", 1.0)
        assert hp.check_report(report) == []
        monkeypatch.setattr(hp, "MIN_THROUGHPUT", 1e12)
        failures = hp.check_report(report)
        assert len(failures) == 1
        assert "agent-steps/s below the" in failures[0]

    def test_cli_check_outside_the_repo(self, tmp_path, monkeypatch, capsys):
        """``--check`` reads no file: it passes from any cwd and writes
        its report there."""
        from repro.bench.cli import main as cli_main

        monkeypatch.chdir(tmp_path)
        rc = cli_main(["hotpath", "--scenario", "smallville",
                       "--agents", "25", "--check"])
        assert rc == 0
        assert (tmp_path / "BENCH_hotpath.json").exists()
        assert "hotpath gate: ok" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,default", [
        (["hotpath"], "BENCH_hotpath.json"),
        (["hotpath", "--scale"], "BENCH_scale.json")])
    def test_cli_out_is_honoured_in_both_modes(self, tmp_path, monkeypatch,
                                               argv, default):
        """Each mode has its own default file, and ``--out`` wins in
        both (``--scale --out BENCH_hotpath.json`` used to be taken for
        the default and silently redirected)."""
        from repro.bench import cli

        written = []

        def fake_run(*args, out, **kwargs):
            written.append(out)
            return {"entries": []}

        monkeypatch.setattr(cli, "run_hotpath", fake_run)
        monkeypatch.setattr(cli, "run_scale", fake_run)
        assert cli.main(argv) == 0
        assert cli.main(argv + ["--out", "BENCH_hotpath.json"]) == 0
        assert cli.main(argv + ["--out", str(tmp_path / "r.json")]) == 0
        assert written == [Path(default), Path("BENCH_hotpath.json"),
                           tmp_path / "r.json"]

    def test_cli_agents_comma_list(self, tmp_path):
        """``--agents 3,5`` overrides the matrix without code edits."""
        from repro.bench.cli import main as cli_main

        out = tmp_path / "hp.json"
        rc = cli_main(["hotpath", "--scenario", "smallville",
                       "--agents", "3,5", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["agent_counts"] == [3, 5]
        assert [e["n_agents"] for e in report["entries"]] == [3, 5]

    def test_cli_agents_rejects_garbage(self, capsys):
        from repro.bench.cli import main as cli_main

        with pytest.raises(SystemExit):
            cli_main(["hotpath", "--agents", "25,banana"])
        assert "invalid agent count list" in capsys.readouterr().err

    def test_check_requires_matrix_cells(self, monkeypatch):
        """--check fails loudly when a cell the report ran is absent."""
        from repro.bench import hotpath as hp

        monkeypatch.setattr(hp, "MIN_THROUGHPUT", 1.0)
        report = hp.run_hotpath(scenarios=["smallville"], agent_counts=(5,))
        assert hp.check_report(report) == []
        report["agent_counts"] = [5, 2000]
        failures = hp.check_report(report)
        assert failures == ["smallville@2000: required matrix cell "
                            "missing from the report"]

    def test_scale_gate_wants_shards_on_parallel_cells_only(self):
        """A serial scale cell runs one graph (``shards`` 1); a parallel
        cell the planner did not split means the workload broke."""
        from repro.bench import hotpath as hp

        cell = {"scenario": "smallville", "n_agents": 100_000, "shards": 1,
                "scale_ratio": 1.0, "agent_steps_per_sec": 1e5}
        report = {"scenarios": ["smallville"], "entries": [
            {**cell, "role": "reference", "n_agents": 2000},
            {**cell, "role": "scale"},
            {**cell, "role": "scale-parallel", "shards": 400,
             "parallel_workers": 4, "parallel_ratio": 2.0}]}
        assert hp.check_scale_report(report) == []
        report["entries"][2]["shards"] = 1
        assert hp.check_scale_report(report) == [
            "smallville@100000[scale-parallel]: region sharding did not "
            "engage (shards=1)"]

    def test_driver_reports_cache_counters(self, synthetic_trace):
        from repro.config import SchedulerConfig
        from repro.core import run_replay

        result = run_replay(synthetic_trace,
                            SchedulerConfig(policy="metropolis"))
        stats = result.driver_stats
        assert stats.controller_time > 0
        assert stats.controller_rounds > 0
        # coalescing: rounds never exceed commits + the initial round
        assert stats.controller_rounds <= stats.clusters_dispatched + 1
        # No component memo is left: every lookup is a BFS.
        assert stats.extra["cluster_cache_hits"] == 0
        assert stats.extra["cluster_cache_misses"] > 0

    def test_kernel_events_per_cluster_amortized_o1(self, synthetic_trace):
        """Single-event rounds: the driver schedules strictly fewer
        kernel events than the old dispatch + commit pair per cluster,
        even on a tiny trace with almost no ack coalescing (the hotpath
        CI gate pins the coalesced matrix at <= 1.0)."""
        from repro.config import SchedulerConfig
        from repro.core import run_replay

        result = run_replay(synthetic_trace, SchedulerConfig())
        stats = result.driver_stats
        events = stats.extra["kernel_events"]
        assert events > 0
        assert events / stats.clusters_dispatched < 2.0
        # one launch event per round that launches a call + one round
        # event per finish instant bounds the total
        assert events <= 2 * stats.controller_rounds + 1

    @pytest.mark.parametrize("num_workers", [0, 3])
    def test_kernel_events_total_one_per_quiet_round(self, num_workers):
        """With no LLM call anywhere, a controller round costs one kernel
        event across *all* layers — its own round (commit) event —
        however many clusters it dispatches, with or without a worker
        cap: a call-free cluster takes no launch event and never reaches
        the executor. With calls, the executor's start events and the
        engine's own show up in ``kernel_events_total`` only."""
        from repro.config import SchedulerConfig
        from repro.core import run_replay

        trace = random_trace(seed=11, n_agents=12, p_call=0.0)
        stats = run_replay(trace, SchedulerConfig(
            num_workers=num_workers)).driver_stats
        assert stats.clusters_dispatched > 2 * stats.controller_rounds
        # The first round runs at start, every later one is an event.
        rounds = stats.controller_rounds - 1
        assert stats.extra["kernel_events"] == rounds
        assert stats.extra["kernel_events_total"] == rounds

        trace = random_trace(seed=11, n_agents=12)
        stats = run_replay(trace, SchedulerConfig()).driver_stats
        assert stats.extra["kernel_events"] < \
            stats.extra["kernel_events_total"]

    def test_report_entry_carries_churn_counters(self, monkeypatch):
        from repro.bench import hotpath as hp

        monkeypatch.setattr(hp, "MIN_THROUGHPUT", 1.0)
        report = hp.run_hotpath(scenarios=["smallville"], agent_counts=(5,))
        entry = report["entries"][0]
        assert entry["kernel_events"] > 0
        assert entry["kernel_events_per_cluster"] < 2.0
        assert entry["kernel_events_per_cluster"] <= \
            entry["events_total_per_cluster"]
        assert 0 < entry["scans_per_agent_step"]
        # The gate reads every counter of the scenario's row; a five-agent
        # cell clears the rows set on the 25-2000 cells.
        ceilings = hp.COUNT_CEILINGS["smallville"]
        assert set(ceilings) <= set(entry)
        assert hp.check_report(report) == []
        for counter, ceiling in list(ceilings.items()):
            monkeypatch.setitem(ceilings, counter, entry[counter] - 1e-9)
            assert hp.check_report(report) == [
                f"smallville@5 (metropolis): {counter} "
                f"{entry[counter]:.4g} above its "
                f"{entry[counter] - 1e-9:.4g} ceiling"]
            ceilings[counter] = ceiling
        del entry["scans_per_agent_step"]
        assert hp.check_report(report) == [
            "smallville@5 (metropolis): scans_per_agent_step missing "
            "from the report entry"]

    def test_generation_block_and_floor(self, tmp_path, monkeypatch,
                                        short_generation_day):
        """The report carries one cold ``generate_trace`` row per
        scenario; the gate wants every row, at or above the floor."""
        from repro.bench import hotpath as hp
        from repro.trace import trace_fingerprint

        short_day = short_generation_day
        out = tmp_path / "hp.json"
        names = ["smallville", "social-graph"]
        report = hp.run_hotpath(scenarios=names, agent_counts=(5,),
                                out=out)
        rows = json.loads(out.read_text())["generation"]
        assert [r["scenario"] for r in rows] == names
        for row in rows:
            trace = short_day(hp.HOTPATH_SEED, row["scenario"])
            assert row["fingerprint"] == trace_fingerprint(trace)
            assert row["n_calls"] == trace.n_calls > 0
            assert row["agent_steps"] == trace.meta.n_agents * 2300
            assert row["agent_steps_per_sec"] == pytest.approx(
                row["agent_steps"] / row["wall_s"])

        def failures():
            return [f for f in hp.check_report(report)
                    if "generation" in f]

        assert hp.MIN_GENERATION_THROUGHPUT > 0
        assert failures() == []
        del report["generation"][1]
        assert failures() == [
            "social-graph: generation row missing from the report"]
        monkeypatch.setattr(hp, "MIN_GENERATION_THROUGHPUT", 1e12)
        assert failures() == [
            "smallville: cold full-day generation at "
            f"{rows[0]['agent_steps_per_sec']:.0f} agent-steps/s, below "
            "the 1000000000000 floor",
            "social-graph: generation row missing from the report"]

    @pytest.mark.skipif(not os.access("/proc/self/clear_refs", os.W_OK),
                        reason="no writable /proc/self/clear_refs")
    def test_peak_rss_resets_per_cell(self):
        """A scale cell's ``peak_rss_mb`` is its own: the high-water
        mark left by an earlier, larger allocation is cleared."""
        import numpy as np

        from repro.bench import report

        report._reset_peak_rss()
        before = report._peak_rss_mb()
        block = np.ones(25_000_000)  # 200 MB, touched
        high = report._peak_rss_mb()
        assert high > before + 150
        del block
        assert report._peak_rss_mb() == high  # a high-water mark, until ...
        report._reset_peak_rss()
        assert report._peak_rss_mb() < high - 150

    def test_scale_cell_reports_bytes_per_agent(self):
        """``bytes_per_agent`` is the cell's peak RSS over its agents,
        that peak is the larger of the generation and run marks, and
        the scale table prints it and the run's mark. A serial cell
        has no worker marks."""
        from repro.bench import hotpath as hp

        entry = hp.bench_scale_one("smallville", 50, n_steps=4)
        assert entry["bytes_per_agent"] == \
            entry["peak_rss_mb"] * 2 ** 20 / 50
        assert entry["peak_rss_mb"] == max(entry["generation_peak_rss_mb"],
                                           entry["run_peak_rss_mb"])
        assert "worker_peak_rss_mb" not in entry
        header, _, row = hp.format_scale_report(
            {"entries": [entry]}).splitlines()
        assert "B/agent" in header and "run-mb" in header
        assert f"{entry['bytes_per_agent']:.0f}" in row.split()
        assert f"{entry['run_peak_rss_mb']:.0f}" in row.split()

    @pytest.mark.skipif(not os.access("/proc/self/clear_refs", os.W_OK),
                        reason="no writable /proc/self/clear_refs")
    def test_run_mark_leaves_generation_out(self, monkeypatch):
        """The replay's mark is reset after the trace is built: a
        200 MB peak during generation shows in the generation mark and
        in ``peak_rss_mb``, not in ``run_peak_rss_mb``."""
        import numpy as np

        from repro.bench import hotpath as hp

        generate = hp.generate_scale_trace

        def bloated(*args, **kwargs):
            block = np.ones(25_000_000)  # 200 MB, touched, then freed
            del block
            return generate(*args, **kwargs)
        monkeypatch.setattr(hp, "generate_scale_trace", bloated)
        entry = hp.bench_scale_one("smallville", 50, n_steps=4)
        assert entry["generation_peak_rss_mb"] > \
            entry["run_peak_rss_mb"] + 150
        assert entry["peak_rss_mb"] == entry["generation_peak_rss_mb"]

    def test_parallel_cell_reports_each_workers_mark(self):
        """A parallel cell lists one mark per worker process, each its
        own (not summed by the ``extra`` fold)."""
        from repro.bench import hotpath as hp

        entry = hp.bench_scale_one("smallville", 60, n_steps=4, shards=2,
                                   parallel_workers=2)
        assert entry["parallel_workers"] == 2
        peaks = entry["worker_peak_rss_mb"]
        assert isinstance(peaks, list) and len(peaks) == 2
        assert all(0 < peak < 2 * entry["peak_rss_mb"] for peak in peaks)

    def test_isolated_cell_leaves_this_process_untouched(self, monkeypatch):
        """``run_scale`` runs each cell in a fresh process: the
        ``social-graph`` space a cell builds stays in that process, the
        entry comes back whole, and a failing cell raises here."""
        from repro.bench import hotpath as hp
        from repro.scenarios import get_scenario

        scn = get_scenario("social-graph")
        monkeypatch.setattr(scn, "_spaces", {})
        entry = hp.bench_scale_isolated("social-graph", 50, n_steps=4)
        assert not scn._spaces
        assert entry["scenario"] == "social-graph"
        assert entry["n_agents"] == 50 and entry["agent_steps"] == 200
        hp.bench_scale_one("social-graph", 50, n_steps=4)
        assert scn._spaces  # what the fresh process kept to itself

    def test_failed_isolated_cell_raises_here(self):
        from repro.bench import hotpath as hp

        with pytest.raises(RuntimeError, match="ScenarioError.*not-a-sc"):
            hp.bench_scale_isolated("not-a-scenario", 50, n_steps=4)

    def test_run_scale_runs_every_cell_isolated(self, monkeypatch,
                                               tmp_path):
        """Every cell of the matrix, reference included, goes through
        :func:`bench_scale_isolated`; this process runs none. The
        reference runs three times, before, between and after the 100k
        cells, and the ratios divide by the median run."""
        from repro.bench import hotpath as hp

        calls = []
        speeds = iter([3.0, 1.0, 5.0, 8.0, 4.0])

        def fake(name, n_agents, n_steps, parallel_workers=0):
            calls.append((name, n_agents, parallel_workers))
            return {"scenario": name, "n_agents": n_agents,
                    "agent_steps_per_sec": next(speeds)}

        def refuse(*args, **kwargs):
            raise AssertionError("a cell ran in this process")
        monkeypatch.setattr(hp, "bench_scale_isolated", fake)
        monkeypatch.setattr(hp, "bench_scale_one", refuse)
        report = hp.run_scale(scenarios=("smallville",), scale_agents=100,
                              reference_agents=10, n_steps=2,
                              out=tmp_path / "scale.json",
                              parallel_workers=2)
        assert calls == [("smallville", 10, 0), ("smallville", 100, 0),
                         ("smallville", 10, 0), ("smallville", 100, 2),
                         ("smallville", 10, 0)]
        ref, big, par = report["entries"]
        assert [e["role"] for e in report["entries"]] == \
            ["reference", "scale", "scale-parallel"]
        assert ref["agent_steps_per_sec"] == 4.0  # the median of 3, 5, 4
        assert ref["reference_runs"] == [3.0, 5.0, 4.0]
        assert big["scale_ratio"] == 0.25 and par["scale_ratio"] == 2.0
        assert par["parallel_ratio"] == 8.0

    def test_graph_cells_report_the_space_and_face_its_ceiling(self):
        """A ``social-graph`` cell reports its space's BFS runs and
        table bytes; every such cell, reference included, is held to
        the tile's ceiling, which is two sweeps per tile component plus
        one row per tile node. A coordinate cell reports neither."""
        from repro.bench import hotpath as hp
        from repro.scenarios import get_scenario

        tile = get_scenario("social-graph").space()._tile
        assert hp.SPACE_BFS_CEILINGS["social-graph"] == \
            2 * len(tile.comp_sizes) + tile.n
        graph = hp.bench_scale_one("social-graph", 50, n_steps=4)
        assert 2 <= graph["space_bfs_runs"] <= 242
        assert graph["space_table_bytes"] > 0
        assert "space_bfs_runs" not in hp.bench_scale_one(
            "smallville", 50, n_steps=4)
        cell = {"scenario": "social-graph", "n_agents": 100_000,
                "shards": 400, "parallel_workers": 4, "scale_ratio": 1.0,
                "parallel_ratio": 2.0, "agent_steps_per_sec": 1e5,
                "space_bfs_runs": 242}
        report = {"scenarios": ["social-graph"], "entries": [
            {**cell, "role": "reference", "n_agents": 2000},
            {**cell, "role": "scale"},
            {**cell, "role": "scale-parallel"}]}
        assert hp.check_scale_report(report) == []
        report["entries"][0]["space_bfs_runs"] = 243
        del report["entries"][2]["space_bfs_runs"]
        assert hp.check_scale_report(report) == [
            "social-graph@2000[reference]: 243 GraphSpace BFS runs above "
            "the tile's 242",
            "social-graph@100000[scale-parallel]: space_bfs_runs missing"]


#: The committed hot-path report: the ledger the ceilings are set on.
COMMITTED_HOTPATH = Path(__file__).resolve().parents[1] / "BENCH_hotpath.json"
COMMITTED_SCALE = COMMITTED_HOTPATH.with_name("BENCH_scale.json")


class TestCountCeilings:
    """The gate table and the committed ledger cannot drift apart."""

    @pytest.fixture(scope="class")
    def committed(self):
        return json.loads(COMMITTED_HOTPATH.read_text())

    def test_committed_report_passes(self, committed):
        from repro.bench.hotpath import check_report

        assert check_report(committed) == []

    def test_committed_scale_report_passes(self):
        from repro.bench.hotpath import check_scale_report

        committed = json.loads(COMMITTED_SCALE.read_text())
        assert check_scale_report(committed) == []
        assert all(e["bytes_per_agent"] > 0 for e in committed["entries"])

    def test_every_scenario_has_a_row(self):
        from repro.bench.hotpath import COUNT_CEILINGS

        counters = set(COUNT_CEILINGS["smallville"])
        for name in scenario_names():
            assert set(COUNT_CEILINGS[name]) == counters, name

    @pytest.mark.parametrize("scenario", scenario_names())
    @pytest.mark.parametrize("counter", [
        "scans_per_agent_step", "events_total_per_cluster",
        "scanned_slots_per_scan", "kernel_events_per_cluster"])
    def test_lowered_ceiling_turns_the_gate_red(self, committed, monkeypatch,
                                                 scenario, counter):
        from repro.bench import hotpath as hp

        worst = max(e[counter] for e in committed["entries"]
                    if e["scenario"] == scenario)
        monkeypatch.setitem(hp.COUNT_CEILINGS[scenario], counter,
                            worst - 1e-9)
        failures = hp.check_report(committed)
        assert failures
        assert all(f.startswith(f"{scenario}@") and f": {counter} " in f
                   for f in failures)

    @pytest.mark.parametrize("scenario", scenario_names())
    @pytest.mark.parametrize("counter", ["kernel_events_per_cluster",
                                         "events_total_per_cluster"])
    def test_event_ceilings_follow_the_rule(self, committed, scenario,
                                            counter):
        """1.25x the scenario's worst committed cell, no looser."""
        from repro.bench.hotpath import COUNT_CEILINGS

        worst = max(e[counter] for e in committed["entries"]
                    if e["scenario"] == scenario)
        assert worst < COUNT_CEILINGS[scenario][counter] \
            <= round(1.25 * worst, 2) + 0.01

    def test_launching_call_free_clusters_turns_the_gate_red(
            self, monkeypatch):
        """A call-free cluster that took a launch event again (every
        agent-step read as calling) breaks the driver-event ceiling."""
        from repro.bench import hotpath as hp
        from repro.trace import Trace

        monkeypatch.setattr(hp, "MIN_THROUGHPUT", 1.0)
        clean = hp.run_hotpath(scenarios=["smallville"], agent_counts=(25,))
        assert hp.check_report(clean) == []
        monkeypatch.setattr(Trace, "calling", property(
            lambda t: b"\1" * (t.meta.n_agents * t.meta.n_steps)))
        noisy = hp.run_hotpath(scenarios=["smallville"], agent_counts=(25,))
        (entry,), (before,) = noisy["entries"], clean["entries"]
        assert entry["completion_time_s"] == before["completion_time_s"]
        assert entry["controller_rounds"] == before["controller_rounds"]
        assert any(": kernel_events_per_cluster " in f
                   for f in hp.check_report(noisy))


def _observable_state(graph, n):
    """Everything a scheduler can see, deep-copied for comparison."""
    return {
        "blocked_by": [set(graph.blocked_by[a]) for a in range(n)],
        "waiters": [set(graph.waiters[a]) for a in range(n)],
        "step": [graph.step[a] for a in range(n)],
        "pos": [graph.pos[a] for a in range(n)],
        "running": [graph.running[a] for a in range(n)],
        "min_step": graph.min_step,
        "max_step": graph.max_step,
        "components": [graph.component_for(a, set())
                       for a in range(n) if not graph.running[a]],
        "slots": slot_snapshot(graph),
    }


class TestStationaryCommits:
    """"Did not move" is free: no geometry, and half the rescan rate."""

    @staticmethod
    def _never_moving(metric):
        """64 agents that never move, spaced past the gap-1 blocking
        threshold (round-robin commits never block) but inside each
        other's slack horizon (near sets are not empty)."""
        if metric == "graph":
            space = ring_space(256)
            rules = DependencyRules(
                DependencyConfig(radius_p=1.0, max_vel=1.0,
                                 metric="graph"), space=space)
            positions = {i: (4 * i, 0) for i in range(64)}
        else:
            rules = DependencyRules(DependencyConfig(metric=metric))
            positions = {i: (10 * (i % 8), 10 * (i // 8))
                         for i in range(64)}
        return rules, positions

    @pytest.mark.parametrize("metric,horizon", [
        ("euclidean", 16), ("chebyshev", 16), ("manhattan", 16),
        ("graph", 8)])
    def test_scan_budget_and_no_cell_derivations(self, metric, horizon):
        """A stationary agent is charged ``max_vel`` per commit, not
        ``2 * max_vel``: it re-scans once per ``horizon`` commits (the
        old bound: twice as often), and no commit derives a cell."""
        rules, positions = self._never_moving(metric)
        graph = SpatioTemporalGraph(rules, positions)
        assert graph._slack_horizon == horizon * rules.max_vel
        cells = list(graph._cellxy)
        pos_objects = list(graph.pos)
        bucket_calls = []
        bucket = rules.space.bucket
        rules.space.bucket = lambda *a: bucket_calls.append(a) or bucket(*a)
        scans = [0] * 64
        steps = 64
        for _ in range(steps):
            for aid in range(64):
                graph.mark_running([aid])
                before = graph.scans
                graph.commit([aid], {})
                scans[aid] += graph.scans - before
                assert not graph.is_blocked(aid)
        assert graph.min_step == graph.max_step == steps
        assert max(scans) <= -(-steps // horizon) + 1
        assert graph.scan_skips + graph.near_checks > graph.scans
        assert bucket_calls == []
        assert all(a is b for a, b in zip(cells, graph._cellxy))
        assert all(a is b for a, b in zip(pos_objects, graph.pos))

    def test_walker_is_charged_for_its_moves(self):
        """The other half of the bound: a commit that moved the agent
        costs ``max_vel`` more. A walker closing in on a laggard must
        block on the exact commit the reference says (mutation check:
        without the ``_scan_moves`` increment its skip licence covers
        that commit and this fails)."""
        rules = DependencyRules(DependencyConfig())
        positions = {0: (0, 0), 1: (30, 0)}
        graph = SpatioTemporalGraph(rules, positions)
        ref = DictReferenceGraph(rules, positions)
        for k in range(1, 14):
            assert not graph.is_blocked(1)
            graph.mark_running([1])
            ref.running[1] = True
            graph.commit([1], {1: (30 - k, 0)})
            ref.commit([1], {1: (30 - k, 0)})
            assert graph.blocked_by[1] == ref.blockers(1)
            _assert_fastpath_invariants(graph, ref, rules, 2)
        # blocked once 30 - k <= radius_p + (k + 1) * max_vel
        assert graph.blockers_of(1) == frozenset({0})
        assert graph.scan_skips > 0

    @pytest.mark.parametrize("positions", [{}, {1: (30, 0)}],
                             ids=["absent", "current"])
    def test_stationary_member_must_be_running(self, positions):
        """No check weakened: skipping the geometry does not skip the
        per-member ``was not running`` error."""
        rules = DependencyRules(DependencyConfig())
        graph = SpatioTemporalGraph(rules, {0: (0, 0), 1: (30, 0)})
        graph.mark_running([0])
        with pytest.raises(SchedulingError, match="agent 1 was not running"):
            graph.commit([0, 1], positions)


class TestAbortRunning:
    """Crash-consistent rollback: abort is the exact inverse of
    mark_running (PR 8 fault-tolerance contract)."""

    def _graph(self):
        rules = DependencyRules(DependencyConfig())
        positions = {0: (0, 0), 1: (2, 0), 2: (50, 0), 3: (52, 0),
                     4: (200, 0)}
        return rules, SpatioTemporalGraph(rules, positions)

    def test_abort_restores_observable_state(self):
        _, graph = self._graph()
        before = _observable_state(graph, 5)
        graph.mark_running([0, 1])
        graph.abort_running([0, 1])
        assert _observable_state(graph, 5) == before

    def test_aborted_cluster_is_redispatchable(self):
        rules, graph = self._graph()
        graph.mark_running([2, 3])
        graph.abort_running([2, 3])
        # The rolled-back members are immediately eligible again and the
        # redispatched component is identical to the aborted one.
        assert not graph.running[2] and not graph.running[3]
        assert graph.component_for(2, set()) == [2, 3]
        graph.mark_running([2, 3])
        graph.commit([2, 3], {2: (50, 0), 3: (52, 0)})
        assert graph.step[2] == 1 and graph.step[3] == 1

    def test_abort_of_non_running_agent_raises(self):
        _, graph = self._graph()
        with pytest.raises(SchedulingError, match="not running"):
            graph.abort_running([0])
        graph.mark_running([0, 1])
        with pytest.raises(SchedulingError, match="not running"):
            graph.abort_running([0, 4])

    @pytest.mark.parametrize("band_size", [None, 1])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**9), n=st.integers(2, 12))
    def test_abort_then_redispatch_fuzz(self, band_size, seed, n):
        """Random interleavings of dispatch/abort/commit must keep the
        array-backed graph bit-equal to the dict reference: blocked
        edges, waiters, slot tables, coupling components, and the §3.2
        validity condition all hold through rollbacks."""
        rng = FastRng(seed)
        rules = DependencyRules(DependencyConfig())
        positions = grid_positions(rng, n)
        graph = banded_graph(rules, positions, band_size)
        ref = DictReferenceGraph(rules, positions)

        for _ in range(40):
            members = _random_cluster(graph, rules, rng, n)
            assert members is not None, "graph deadlocked"
            graph.mark_running(members)
            for m in members:
                ref.running[m] = True
            if rng.random() < 0.45:  # fault: roll the dispatch back
                graph.abort_running(members)
                for m in members:
                    ref.running[m] = False
            else:  # success: the (possibly re-)dispatch commits
                new_pos = {}
                for m in members:
                    cands = grid_moves(graph.pos[m])
                    new_pos[m] = cands[rng.integers(0, len(cands))]
                _commit_both(graph, ref, members, new_pos)
            _assert_graph_matches_reference(graph, ref, n)
            _assert_fastpath_invariants(graph, ref, rules, n)
            for aid in range(n):
                if not graph.running[aid]:
                    assert graph.component_for(aid, set()) == \
                        _ref_component(ref, rules, aid)
            graph.validate()  # rollbacks never break §3.2 validity


class TestCausalityViolation:
    """The runtime validity check fails loudly with a typed error."""

    def test_violating_snapshot_raises_with_details(self):
        rules = DependencyRules(DependencyConfig())
        states = [(0, 5, (0.0, 0.0)), (1, 0, (1.0, 0.0))]
        with pytest.raises(CausalityViolation) as err:
            rules.validate_state(states)
        exc = err.value
        assert {exc.agent_a, exc.agent_b} == {0, 1}
        assert {exc.step_a, exc.step_b} == {5, 0}
        assert exc.distance == pytest.approx(1.0)
        assert exc.distance <= exc.threshold
        assert isinstance(exc, SchedulingError)  # callers can catch broad

    def test_same_step_agents_always_valid(self):
        rules = DependencyRules(DependencyConfig())
        rules.validate_state([(0, 3, (0.0, 0.0)), (1, 3, (0.1, 0.0))])

    def test_far_apart_step_spread_is_valid(self):
        rules = DependencyRules(DependencyConfig())
        rules.validate_state([(0, 5, (0.0, 0.0)), (1, 0, (1000.0, 0.0))])

    def test_graph_validate_delegates(self):
        rules = DependencyRules(DependencyConfig())
        graph = SpatioTemporalGraph(rules, {0: (0, 0), 1: (5, 0)})
        graph.validate()  # fresh graph: all agents at step 0, valid
