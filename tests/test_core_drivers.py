"""Tests for the scheduling drivers (Algorithm 1, Algorithm 3, oracle,
no-dependency) and the replay engine around them."""

import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (DependencyConfig, OverheadConfig, SchedulerConfig,
                          ServingConfig)
from repro.core import run_replay
from repro.core.engine import critical_time_for
from repro._util import FastRng
from repro.core.clustering import geo_clustering
from repro.core.controller import ControllerCore
from repro.core.oracle import (MinedGroupGraph, mean_dependency_count,
                               mine_interaction_groups)
from repro.core.rules import DependencyRules, rules_for
from repro.errors import ConfigError
from repro.serving import PerfModel, get_gpu, get_model
from repro.trace import Trace
from repro.trace.schema import TraceMeta

from helpers import random_trace, trajectory_trace, tree_chord_space

POLICIES = ["single-thread", "parallel-sync", "metropolis", "oracle",
            "no-dependency"]


def _run(trace, policy, l4=1, **sched_kw):
    return run_replay(
        trace,
        SchedulerConfig(policy=policy, **sched_kw),
        ServingConfig(model="llama3-8b", gpu="l4", dp=l4))


class TestAllPoliciesComplete:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_completes_all_calls(self, synthetic_trace, policy):
        result = _run(synthetic_trace, policy)
        assert result.n_calls_completed == synthetic_trace.n_calls
        assert result.completion_time > 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_on_world_trace(self, morning_trace, policy):
        result = _run(morning_trace, policy)
        assert result.n_calls_completed == morning_trace.n_calls

    def test_unknown_policy(self, synthetic_trace):
        with pytest.raises(ConfigError):
            _run(synthetic_trace, "yolo")


class TestOrdering:
    """The paper's performance ordering must hold on real workloads."""

    @pytest.fixture(scope="class")
    def results(self, morning_trace):
        return {p: run_replay(
            morning_trace, SchedulerConfig(policy=p),
            ServingConfig(model="llama3-8b", gpu="l4", dp=1))
            for p in POLICIES}

    def test_single_thread_slowest(self, results):
        assert results["single-thread"].completion_time >= \
            results["parallel-sync"].completion_time

    def test_metropolis_beats_parallel_sync(self, results):
        assert results["metropolis"].completion_time < \
            results["parallel-sync"].completion_time

    def test_oracle_bounds_metropolis(self, results):
        # oracle has strictly fewer constraints -> no slower (tolerance
        # for queueing noise).
        assert results["oracle"].completion_time <= \
            1.05 * results["metropolis"].completion_time

    def test_no_dependency_fastest(self, results):
        fastest = min(r.completion_time for p, r in results.items()
                      if p != "no-dependency")
        assert results["no-dependency"].completion_time <= fastest

    def test_parallelism_ordering(self, results):
        assert results["single-thread"].achieved_parallelism < \
            results["parallel-sync"].achieved_parallelism < \
            results["metropolis"].achieved_parallelism

    def test_single_thread_parallelism_near_one(self, results):
        assert 0.8 <= results["single-thread"].achieved_parallelism <= 1.0

    def test_speedup_helper(self, results):
        m, s = results["metropolis"], results["single-thread"]
        assert m.speedup_over(s) == pytest.approx(
            s.completion_time / m.completion_time)


class TestMetropolisProperties:
    def test_causality_validation_clean(self, synthetic_trace):
        # Runs the O(n^2) §3.2 validator after every commit.
        result = _run(synthetic_trace, "metropolis",
                      validate_causality=True)
        assert result.n_calls_completed == synthetic_trace.n_calls

    def test_causality_validation_on_world_trace(self, morning_trace):
        result = _run(morning_trace, "metropolis", validate_causality=True)
        assert result.n_calls_completed == morning_trace.n_calls

    def test_step_spread_nonzero(self, morning_trace):
        result = _run(morning_trace, "metropolis")
        assert result.driver_stats.max_step_spread > 0

    def test_spread_bounded_by_map(self, morning_trace):
        # Information propagates at max_vel: the spread cannot exceed the
        # map diameter in steps (plus one in-flight step).
        result = _run(morning_trace, "metropolis")
        meta = morning_trace.meta
        diameter = (meta.width ** 2 + meta.height ** 2) ** 0.5
        assert result.driver_stats.max_step_spread <= diameter + 1

    def test_worker_cap_slows_but_completes(self, synthetic_trace):
        unbounded = _run(synthetic_trace, "metropolis", num_workers=0)
        capped = _run(synthetic_trace, "metropolis", num_workers=1)
        assert capped.n_calls_completed == synthetic_trace.n_calls
        assert capped.completion_time >= unbounded.completion_time

    def test_deterministic(self, synthetic_trace):
        a = _run(synthetic_trace, "metropolis")
        b = _run(synthetic_trace, "metropolis")
        assert a.completion_time == b.completion_time

    def test_larger_radius_more_coupling(self, morning_trace):
        tight = _run(morning_trace, "metropolis")
        loose = run_replay(
            morning_trace,
            SchedulerConfig(policy="metropolis",
                            dependency=DependencyConfig(radius_p=12.0)),
            ServingConfig(model="llama3-8b", gpu="l4", dp=1))
        assert loose.driver_stats.mean_cluster_size >= \
            tight.driver_stats.mean_cluster_size
        assert loose.completion_time >= 0.95 * tight.completion_time


class TestWorkerCapQueue:
    """Under ``num_workers=1`` the pending clusters leave one at a time:
    an interactive-cone cluster first, then by step (or by arrival with
    priority off), arrival order among equal keys."""

    @pytest.mark.parametrize("priority, expected", [
        (True, [[0], [2], [4], [1], [3]]),
        (False, [[0], [1], [2], [3], [4]])])
    def test_pop_order(self, priority, expected):
        from repro.core.metropolis import MetropolisDriver
        from repro.core.tasks import ChainExecutor
        from repro.devent import Kernel
        from repro.serving import ServingEngine

        # No calls, so every popped cluster joins one quiet round batch
        # in pop order. Agent 0 is interactive; the others stand far
        # outside its cone.
        n_steps = 10
        xy = [(0, 0), (200, 0), (0, 200), (200, 200), (400, 0)]
        positions = np.tile(np.asarray(xy, dtype=np.int16),
                            (n_steps + 1, 1, 1))
        none = np.zeros(0, dtype=np.int32)
        trace = Trace(TraceMeta(n_agents=5, n_steps=n_steps, seed=0,
                                width=512, height=512),
                      positions, none, none, none.astype(np.int16), none,
                      none)
        kernel = Kernel()
        engine = ServingEngine(kernel, ServingConfig())
        config = SchedulerConfig(num_workers=1, priority=priority,
                                 interactive_agents=(0,))
        driver = MetropolisDriver(kernel, engine, trace, config,
                                  ChainExecutor(kernel, engine, trace,
                                                config.overhead))
        # Pushed out of step order; the cone's cluster arrives last.
        driver._dispatch([(5, [1]), (2, [2]), (5, [3]), (2, [4]), (7, [0])])
        while driver._pending:
            driver._busy_workers -= 1  # a slot frees
            driver._dispatch([])
        (batch,) = driver._round_pending.values()
        assert [cluster for _, cluster in batch] == expected


class TestQuietClusters:
    """Call-free clusters bypass the executor; nothing simulated moves."""

    @pytest.mark.parametrize("kv_policy", ["none", "distance"])
    @pytest.mark.parametrize("num_workers", [0, 3])
    @pytest.mark.parametrize("p_call", [0.0, 0.1, 1.0])
    def test_bypass_equals_executor_path(self, monkeypatch, p_call,
                                         num_workers, kv_policy):
        """Reference: the driver reads every agent-step as calling, so
        every cluster takes a launch event and ``run_round`` (the
        executor completes a call-free member in its start event, as it
        did for every cluster before the bypass; it pins callers only,
        from the chains themselves). Same completion time, per-call
        timeline, KV counters and driver stats — only the kernel event
        counts may differ. Overheads are the defaults: with all of them
        zero every event of a run sits at one instant and their order
        is the schedule."""
        trace = random_trace(seed=5, n_agents=10, p_call=p_call)
        scheduler = SchedulerConfig(num_workers=num_workers)
        serving = ServingConfig(model="llama3-8b", gpu="l4", dp=2,
                                kv_policy=kv_policy, kv_memory_fraction=0.02)

        def observe():
            result = run_replay(trace, scheduler, serving,
                                collect_timeline=True)
            stats = asdict(result.driver_stats)
            for host_seconds in ("time_clustering", "time_graph",
                                 "time_dispatch"):
                del stats[host_seconds]
            events = (stats["extra"].pop("kernel_events"),
                      stats["extra"].pop("kernel_events_total"))
            calls = [(e.agent, e.step, e.func_id, e.submit_time,
                      e.finish_time) for e in result.timeline.events]
            return (result.completion_time, calls, result.kv_stats,
                    stats), events

        bypass, bypass_events = observe()
        every_step = b"\1" * (trace.meta.n_agents * trace.meta.n_steps)
        monkeypatch.setattr(Trace, "calling", property(lambda _: every_step))
        reference, reference_events = observe()
        assert bypass == reference
        assert len(bypass[1]) == trace.n_calls
        if kv_policy == "distance" and p_call:
            assert bypass[2]["prefetch_pins"] > 0
        if p_call < 1.0:
            # Fewer driver events (no launch for a call-free cluster)
            # and fewer in total (nor an executor start event).
            assert bypass_events[0] < reference_events[0]
            assert bypass_events[1] < reference_events[1]
        else:
            assert bypass_events == reference_events


class TestParallelSync:
    def test_barrier_count(self, synthetic_trace):
        result = _run(synthetic_trace, "parallel-sync")
        assert result.driver_stats.clusters_dispatched == \
            synthetic_trace.meta.n_steps
        assert len(result.step_completion_times) == \
            synthetic_trace.meta.n_steps

    def test_barriers_monotone(self, synthetic_trace):
        result = _run(synthetic_trace, "parallel-sync")
        times = result.step_completion_times
        assert all(a <= b for a, b in zip(times, times[1:]))


def _mined_groups(start, order, step):
    """Step ``step``'s groups read back from the flat store: runs of
    ``order[step]``, each labelled by the index where it begins."""
    groups = []
    for j, aid in enumerate(order[step].tolist()):
        if start[step, aid] == j:
            groups.append([])
        groups[-1].append(aid)
    return groups


class TestOracleMining:
    def test_store_holds_the_clustering_of_every_step(self, synthetic_trace):
        trace = synthetic_trace
        start, order = mine_interaction_groups(trace)
        assert start.shape == order.shape == (trace.meta.n_steps,
                                              trace.meta.n_agents)
        assert start.dtype == order.dtype == np.int32
        space = rules_for(None, trace.meta).space
        ids = list(range(trace.meta.n_agents))
        for step in range(trace.meta.n_steps):
            positions = [trace.pos(aid, step) for aid in ids]
            assert _mined_groups(start, order, step) == geo_clustering(
                ids, positions, space, trace.meta.radius_p)

    def test_graph_keeps_8_bytes_per_agent_step(self):
        """The mined store is the graph's only O(agent-steps) memory, and
        no step's member lists outlive their conversion."""
        trace = random_trace(5, n_agents=40, n_steps=200, width=60,
                             height=40)
        rules = rules_for(None, trace.meta)
        tracemalloc.start()
        try:
            graph = MinedGroupGraph(trace, rules)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        store = 8 * 40 * 200
        assert graph._start.nbytes + graph._order.nbytes == store
        assert retained < store + 48 * 1024
        assert peak < retained + 48 * 1024

    def test_mean_dependency_at_least_one(self, synthetic_trace):
        assert mean_dependency_count(synthetic_trace) >= 1.0

    def test_day_dependency_sparsity(self, day_trace):
        # The paper's headline sparsity claim: ~1.85 of 25.
        mean_deps = mean_dependency_count(day_trace)
        assert 1.2 <= mean_deps <= 2.8


def _tree_chord_world(seed, n_agents=8, nodes=10, n_steps=16):
    """``(trace, rules)``: random walkers on a tree-with-chords graph,
    one hop or a stay per step, with a sparse random call chain."""
    rng = FastRng(seed)
    space, adj = tree_chord_space(rng, nodes)
    positions = np.zeros((n_steps + 1, n_agents, 2), dtype=np.int16)
    for aid in range(n_agents):
        node = (rng.integers(0, nodes), 0)
        for s in range(n_steps + 1):
            positions[s, aid, 0] = node[0]
            moves = [node, *sorted(adj[node])]
            node = moves[rng.integers(0, len(moves))]
    calls = [(s, aid) for s in range(n_steps) for aid in range(n_agents)
             if rng.random() < 0.4]
    meta = TraceMeta(n_agents=n_agents, n_steps=n_steps, seed=seed,
                     width=nodes, height=1, radius_p=1.0, metric="graph",
                     scenario="")
    trace = Trace(meta, positions,
                  np.asarray([c[0] for c in calls], dtype=np.int32),
                  np.asarray([c[1] for c in calls], dtype=np.int32),
                  np.zeros(len(calls), dtype=np.int16),
                  np.full(len(calls), 64, dtype=np.int32),
                  np.full(len(calls), 4, dtype=np.int32))
    rules = DependencyRules(
        DependencyConfig(radius_p=1.0, max_vel=1.0, metric="graph"),
        space=space)
    return trace, rules


def _record_rounds(monkeypatch):
    """Log every ``ControllerCore.step``: the ``(agent, step)`` pairs it
    finished, then the ``(step, members)`` clusters it claimed."""
    rounds = []
    step = ControllerCore.step

    def spy(core, finished, positions, *, aborted=()):
        done = [(aid, core.graph.step[aid]) for aid in finished]
        clusters = step(core, finished, positions, aborted=aborted)
        rounds.append((done, [(s, list(m)) for s, m in clusters]))
        return clusters

    monkeypatch.setattr(ControllerCore, "step", spy)
    return rounds


def _assert_oracle_schedule(start, order, rounds):
    """Each claimed cluster at step s is exactly one mined group of s;
    no member starts s before every group-mate finished s - 1; every
    (agent, step) starts once."""
    n_steps, n = start.shape
    finished: set[tuple[int, int]] = set()
    started: set[tuple[int, int]] = set()
    groups = {}
    for done, clusters in rounds:
        finished.update(done)
        for s, members in clusters:
            if s not in groups:
                groups[s] = {g[0]: g for g in _mined_groups(start, order, s)}
            assert members == groups[s].get(members[0]), \
                f"step {s}: dispatched {members}, not a mined group"
            for m in members:
                assert s == 0 or (m, s - 1) in finished, \
                    f"agent {m} started {s} before its group finished {s - 1}"
                assert (m, s) not in started
                started.add((m, s))
    assert len(started) == n * n_steps


class TestOracleSchedule:
    """The oracle is the one controller over the mined groups: a cluster
    is a whole mined group, claimed once every member reached its step."""

    @staticmethod
    def _random_acks(trace, rules, seed):
        """Drive the core over the mined graph, acking a random subset
        of the clusters in flight each round (validated throughout)."""
        graph = MinedGroupGraph(trace, rules)
        core = ControllerCore(graph, trace.meta.n_steps, validate=True)
        rng = FastRng(seed)
        inflight = core.step([], {})
        while inflight:
            for i in range(len(inflight) - 1, 0, -1):
                j = rng.integers(0, i + 1)
                inflight[i], inflight[j] = inflight[j], inflight[i]
            k = rng.integers(1, len(inflight) + 1)
            batch, inflight = inflight[:k], inflight[k:]
            inflight += core.step([m for _, ms in batch for m in ms], {})
        assert core.finished()
        return graph

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_random_trace(self, seed):
        trace = random_trace(seed, n_agents=10, n_steps=20, width=12,
                             height=10)
        start, order = mine_interaction_groups(trace)
        with pytest.MonkeyPatch.context() as mp:
            rounds = _record_rounds(mp)
            self._random_acks(trace, rules_for(None, trace.meta), seed)
        _assert_oracle_schedule(start, order, rounds)
        with pytest.MonkeyPatch.context() as mp:
            rounds = _record_rounds(mp)
            result = _run(trace, "oracle", num_workers=3, priority=False,
                          validate_causality=True)
        assert result.n_calls_completed == trace.n_calls
        _assert_oracle_schedule(start, order, rounds)

    def test_trajectory_trace(self, monkeypatch):
        # Three walkers converge on a heavy laggard's tile and disperse:
        # the group forms, waits for the laggard, and splits again.
        laggard = (10, 10)
        walkers = [[(10 + d * max(0, 8 - s), 10) for s in range(21)]
                   for d in (-1, 1)]
        walkers.append([(10, 10 + max(0, 8 - abs(s - 10))) for s in
                        range(21)])
        trace = trajectory_trace([laggard, *walkers],
                                 [(4, 384, 32), (1, 32, 2), (0, 0, 0),
                                  (1, 32, 2)])
        start, order = mine_interaction_groups(trace)
        assert max(len(g) for s in range(trace.meta.n_steps)
                   for g in _mined_groups(start, order, s)) >= 3
        rounds = _record_rounds(monkeypatch)
        _run(trace, "oracle", validate_causality=True)
        _assert_oracle_schedule(start, order, rounds)
        rounds.clear()
        self._random_acks(trace, rules_for(None, trace.meta), 7)
        _assert_oracle_schedule(start, order, rounds)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_tree_chord_space(self, seed):
        trace, rules = _tree_chord_world(seed)
        start, order = mine_interaction_groups(trace, rules.space)
        with pytest.MonkeyPatch.context() as mp:
            rounds = _record_rounds(mp)
            self._random_acks(trace, rules, seed)
        _assert_oracle_schedule(start, order, rounds)


def _per_group_references(trace, perf, config):
    """The group-list loops the flat store replaced: ``(mean group size
    over agent-steps, critical path)``, from ``geo_clustering`` per step
    and per-call service times summed in call order."""
    space = rules_for(None, trace.meta).space
    n, n_steps = trace.meta.n_agents, trace.meta.n_steps
    groups = [geo_clustering(range(n), [trace.pos(a, s) for a in range(n)],
                             space, trace.meta.radius_p)
              for s in range(n_steps)]
    sizes = [len(g) for per_step in groups for g in per_step]
    mean = sum(k * k for k in sizes) / sum(sizes)
    prefill0 = perf.prefill_time(0)
    slope = perf.prefill_time(1_000_000) / 1e6 - prefill0 / 1e6
    iter0 = perf.decode_iteration_time(1, 0.0)
    kv = perf.kv_read_time_per_token()
    chain = np.zeros((n, n_steps))
    for i in range(trace.n_calls):
        p, o = float(trace.call_in[i]), float(trace.call_out[i])
        chain[trace.call_agent[i], trace.call_step[i]] += (
            prefill0 + slope * p + o * (iter0 + kv * (p + o / 2.0)))
    chain += config.overhead.agent_step
    finish = [0.0] * n
    for step in range(n_steps):
        for group in groups[step]:
            start = max(finish[a] for a in group)
            for a in group:
                finish[a] = start + chain[a, step]
    return mean, max(finish)


class TestCriticalPath:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_flat_store_matches_the_group_loops(self, seed, l4_serving):
        trace = random_trace(seed, n_agents=12, n_steps=30, width=14,
                             height=10)
        mean, critical = _per_group_references(
            trace, PerfModel(model=get_model("llama3-8b"), gpu=get_gpu("l4")),
            SchedulerConfig())
        assert mean_dependency_count(trace) == mean
        assert critical_time_for(trace, l4_serving) == critical

    def test_lower_bounds_oracle(self, morning_trace, l4_serving):
        critical = critical_time_for(morning_trace, l4_serving)
        oracle = _run(morning_trace, "oracle")
        assert critical <= oracle.completion_time * 1.001

    def test_grows_with_more_steps(self, synthetic_trace, l4_serving):
        half = synthetic_trace.window(0, synthetic_trace.meta.n_steps // 2)
        assert critical_time_for(half, l4_serving) <= \
            critical_time_for(synthetic_trace, l4_serving)

    def test_faster_hardware_shorter_path(self, morning_trace):
        l4 = critical_time_for(
            morning_trace, ServingConfig(model="llama3-8b", gpu="l4"))
        a100 = critical_time_for(
            morning_trace, ServingConfig(model="llama3-8b", gpu="a100"))
        assert a100 < l4


class TestPriorityScheduling:
    def test_priority_helps_or_neutral_for_metropolis(self, morning_trace):
        with_p = _run(morning_trace, "metropolis", priority=True)
        without = _run(morning_trace, "metropolis", priority=False)
        # Table 1: priority recovers blocked time; allow small noise.
        assert with_p.completion_time <= without.completion_time * 1.05

    def test_flag_reaches_serving_engine(self, synthetic_trace):
        result = _run(synthetic_trace, "metropolis", priority=False)
        assert result.n_calls_completed == synthetic_trace.n_calls


class TestDataParallelScaling:
    def test_more_gpus_help_metropolis(self, morning_trace):
        one = _run(morning_trace, "metropolis", l4=1)
        four = _run(morning_trace, "metropolis", l4=4)
        assert four.completion_time < one.completion_time

    def test_single_thread_cannot_use_gpus(self, morning_trace):
        one = _run(morning_trace, "single-thread", l4=1)
        four = _run(morning_trace, "single-thread", l4=4)
        assert four.completion_time == pytest.approx(
            one.completion_time, rel=0.01)


class TestOverheadConfig:
    def test_zero_overhead_still_works(self, synthetic_trace):
        result = run_replay(
            synthetic_trace,
            SchedulerConfig(policy="metropolis",
                            overhead=OverheadConfig(0.0, 0.0, 0.0, 0.0)),
            ServingConfig(model="llama3-8b", gpu="l4"))
        assert result.n_calls_completed == synthetic_trace.n_calls

    def test_overhead_extends_completion(self, synthetic_trace):
        lean = run_replay(
            synthetic_trace,
            SchedulerConfig(policy="single-thread",
                            overhead=OverheadConfig(0.0, 0.0, 0.0, 0.0)),
            ServingConfig(model="llama3-8b", gpu="l4"))
        heavy = run_replay(
            synthetic_trace,
            SchedulerConfig(policy="single-thread",
                            overhead=OverheadConfig(0.1, 0.0, 0.0, 0.0)),
            ServingConfig(model="llama3-8b", gpu="l4"))
        expected_extra = 0.1 * synthetic_trace.meta.n_agents * \
            synthetic_trace.meta.n_steps
        assert heavy.completion_time - lean.completion_time == \
            pytest.approx(expected_extra, rel=0.05)
