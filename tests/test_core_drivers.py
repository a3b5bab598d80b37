"""Tests for the scheduling drivers (Algorithm 1, Algorithm 3, oracle,
no-dependency) and the replay engine around them."""

from dataclasses import asdict

import pytest

from repro.config import (DependencyConfig, OverheadConfig, SchedulerConfig,
                          ServingConfig)
from repro.core import run_replay
from repro.core.engine import critical_time_for
from repro.core.oracle import mean_dependency_count, mine_interaction_groups
from repro.errors import ConfigError
from repro.trace import Trace

from helpers import random_trace

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


class TestOracleMining:
    def test_groups_partition_agents(self, synthetic_trace):
        groups = mine_interaction_groups(synthetic_trace)
        for per_step in groups:
            members = sorted(m for g in per_step for m in g)
            assert members == list(range(synthetic_trace.meta.n_agents))

    def test_mean_dependency_at_least_one(self, synthetic_trace):
        assert mean_dependency_count(synthetic_trace) >= 1.0

    def test_day_dependency_sparsity(self, day_trace):
        # The paper's headline sparsity claim: ~1.85 of 25.
        mean_deps = mean_dependency_count(day_trace)
        assert 1.2 <= mean_deps <= 2.8


class TestCriticalPath:
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
