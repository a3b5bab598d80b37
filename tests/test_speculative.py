"""Speculative OOO execution (§6): deterministic collision/disjoint
worlds, the speculation ledger invariant (also under mid-run faults),
and a spec-vs-plain-vs-lock-step-oracle equivalence fuzz."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SchedulerConfig, ServingConfig
from repro.core import run_replay
from repro.core.parallel import run_parallel_replay
from repro.trace.generator import generate_scale_trace

from helpers import (collision_course_trace, disjoint_course_trace,
                     random_trace)
from test_golden_replay import InProcessPool, counters


def _run(trace, policy, collect_timeline=False, fault_hook=None, **kw):
    return run_replay(trace, SchedulerConfig(policy=policy, **kw),
                      ServingConfig(model="llama3-8b", gpu="l4", dp=1),
                      collect_timeline=collect_timeline,
                      fault_hook=fault_hook)


def _assert_ledger(extra):
    """Every speculation record ends in exactly one of retire /
    misspeculation / squash, and the O(changed rows) undo restores
    exactly the launched-but-never-retired snapshot rows — no more
    (whole-store replays would overshoot), no fewer (leaks)."""
    assert extra["speculations"] == (extra["spec_retires"]
                                     + extra["misspeculations"]
                                     + extra["squashes"])
    assert extra["spec_launched_members"] == \
        (extra["spec_retired_members"] + extra["rollback_rows"])
    assert extra["rollback_rows"] <= extra["spec_launched_members"]


class TestSpeculativeDriver:
    def test_completes_synthetic(self, synthetic_trace):
        result = _run(synthetic_trace, "metropolis-spec")
        assert result.n_calls_completed >= synthetic_trace.n_calls
        _assert_ledger(result.driver_stats.extra)

    def test_completes_world_trace(self, morning_trace):
        result = _run(morning_trace, "metropolis-spec")
        # Squashed/misspeculated chains re-execute: total engine calls may
        # exceed the trace's, but every task retires exactly once.
        assert result.n_tasks_completed == \
            morning_trace.meta.n_agents * morning_trace.meta.n_steps

    def test_speculation_happens(self, morning_trace):
        result = _run(morning_trace, "metropolis-spec")
        assert result.driver_stats.extra["speculations"] > 0
        assert result.driver_stats.extra["spec_retires"] > 0

    def test_causality_still_validates(self, synthetic_trace):
        result = _run(synthetic_trace, "metropolis-spec",
                      validate_causality=True)
        assert result.n_tasks_completed == \
            synthetic_trace.meta.n_agents * synthetic_trace.meta.n_steps

    def test_no_slower_than_metropolis(self, morning_trace):
        base = _run(morning_trace, "metropolis")
        spec = _run(morning_trace, "metropolis-spec")
        # Speculation hides blocked waiting; allow small scheduling noise.
        assert spec.completion_time <= base.completion_time * 1.02

    def test_budget_zero_equals_metropolis(self, synthetic_trace):
        base = _run(synthetic_trace, "metropolis")
        spec = _run(synthetic_trace, "metropolis-spec",
                    speculation_budget=0)
        assert spec.completion_time == pytest.approx(base.completion_time)
        assert spec.driver_stats.extra["speculations"] == 0

    def test_deterministic(self, synthetic_trace):
        a = _run(synthetic_trace, "metropolis-spec")
        b = _run(synthetic_trace, "metropolis-spec")
        assert a.completion_time == b.completion_time

    def test_dense_trace_squashes(self):
        """Crowded agents constantly join clusters mid-speculation."""
        trace = random_trace(seed=21, n_agents=10, n_steps=40,
                             width=12, height=12, p_call=0.5)
        result = _run(trace, "metropolis-spec", validate_causality=True)
        assert result.n_tasks_completed == 10 * 40
        extra = result.driver_stats.extra
        assert extra["squashes"] + extra["misspeculations"] > 0
        _assert_ledger(extra)

    def test_priority_off_still_correct(self):
        """The Table 1 priority ablation: ranking off changes which
        clusters launch, never what commits."""
        trace = random_trace(seed=9, n_agents=8, n_steps=30,
                             width=16, height=14, p_call=0.5)
        on = _run(trace, "metropolis-spec", validate_causality=True)
        off = _run(trace, "metropolis-spec", validate_causality=True,
                   speculation_priority=False,
                   speculation_adaptive=False)
        for r in (on, off):
            assert r.n_tasks_completed == 8 * 30
            _assert_ledger(r.driver_stats.extra)


class TestCollisionAndDisjointCourses:
    """Deterministic worlds with provable speculation outcomes."""

    def test_collision_course_misspeculates(self):
        result = _run(collision_course_trace(), "metropolis-spec",
                      validate_causality=True)
        extra = result.driver_stats.extra
        assert result.n_tasks_completed == 2 * 24
        # The laggard's trace provably enters the walker's radius inside
        # the launch window: the oracle-marked record dies as a
        # misspeculation (stale inputs), not a conservative squash.
        assert extra["misspeculations"] > 0
        assert extra["squashes"] == 0
        _assert_ledger(extra)
        # Exact recovery: every rolled-back member re-executed its
        # chains through the normal path, exactly once more.
        trace = collision_course_trace()
        assert result.n_calls_completed > trace.n_calls
        assert extra["rollback_rows"] == (extra["spec_launched_members"]
                                          - extra["spec_retired_members"])

    def test_disjoint_course_never_misspeculates(self):
        trace = disjoint_course_trace()
        result = _run(trace, "metropolis-spec", validate_causality=True)
        extra = result.driver_stats.extra
        assert result.n_tasks_completed == 2 * 24
        assert extra["speculations"] > 0
        assert extra["misspeculations"] == 0
        assert extra["squashes"] == 0
        assert extra["spec_retires"] == extra["speculations"]
        assert extra["rollback_rows"] == 0
        # No wasted work at all: the engine served exactly the trace.
        assert result.n_calls_completed == trace.n_calls
        _assert_ledger(extra)


def _per_agent_sequences(timeline, n_agents):
    """[(step, func_id), ...] per agent, in submission order."""
    seqs = {aid: [] for aid in range(n_agents)}
    for e in sorted(timeline.events, key=lambda e: (e.submit_time,
                                                    e.agent, e.step)):
        seqs[e.agent].append((e.step, e.func_id))
    return seqs


def _assert_spec_sequences_valid(trace, spec_seq):
    """Speculative re-execution may repeat a step's chain, but each
    (agent, step) must run k >= 1 whole copies of the trace's chain,
    in order, and steps stay non-decreasing per agent (the driver only
    ever speculates an agent's *current* step)."""
    n_steps = trace.meta.n_steps
    for aid, seq in spec_seq.items():
        steps = [s for s, _ in seq]
        assert steps == sorted(steps)
        by_step = {}
        for s, f in seq:
            by_step.setdefault(s, []).append(f)
        called_steps = [s for s in range(n_steps)
                        if trace.chain(aid, s)]
        assert sorted(by_step) == called_steps
        for s, funcs in by_step.items():
            chain = [f for f, _, _ in trace.chain(aid, s)]
            assert len(funcs) % len(chain) == 0
            k = len(funcs) // len(chain)
            assert funcs == chain * k


class TestSpecEquivalenceFuzz:
    """Spec vs plain OOO vs the lock-step oracle on random small
    worlds: identical committed world state, per-agent call sequences,
    and the speculation ledger — across coordinate and graph metrics,
    in process and as two worker tasks (4 cells x 50 seeds = 200
    worlds)."""

    @pytest.mark.parametrize("scenario,workers", [
        ("smallville", 0), ("smallville", 2),
        ("social-graph", 0), ("social-graph", 2)])
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_matches_plain_and_oracle(self, scenario, workers, seed):
        # Two segments are two regions: one worker task each.
        trace = generate_scale_trace(
            total_agents=24 * (workers or 1), n_steps=10,
            scenario=scenario, base_seed=seed)
        base = SchedulerConfig(policy="metropolis-spec",
                               parallel_workers=workers,
                               validate_causality=True)

        def replay(config):
            if not workers:
                return run_replay(trace, config, collect_timeline=True)
            result = run_parallel_replay(trace, config,
                                         collect_timeline=True,
                                         pool=InProcessPool())
            assert result is not None
            return result

        spec = replay(base)
        plain = replay(replace(base, policy="metropolis"))
        sync = run_replay(trace, replace(base, policy="parallel-sync",
                                         parallel_workers=0),
                          collect_timeline=True)

        n, steps = trace.meta.n_agents, trace.meta.n_steps
        # Committed world state: every (agent, step) retires exactly
        # once under all three schedules; plain and the oracle serve
        # exactly the trace's calls.
        assert spec.n_tasks_completed == n * steps
        assert plain.n_tasks_completed == n * steps
        assert sync.n_tasks_completed == n * steps
        assert plain.n_calls_completed == trace.n_calls
        assert sync.n_calls_completed == trace.n_calls
        assert spec.n_calls_completed >= trace.n_calls

        # Per-agent call sequences: plain OOO reorders across agents
        # but never within one — it must match the lock-step oracle
        # bit for bit.
        plain_seq = _per_agent_sequences(plain.timeline, n)
        sync_seq = _per_agent_sequences(sync.timeline, n)
        assert plain_seq == sync_seq
        # Speculation may re-execute squashed chains; modulo those
        # whole-chain repeats the sequences are identical too.
        spec_seq = _per_agent_sequences(spec.timeline, n)
        _assert_spec_sequences_valid(trace, spec_seq)

        extra = spec.driver_stats.extra
        _assert_ledger(extra)
        # O(changed rows): the wasted engine calls are exactly the
        # rolled-back members' chains — undo never replays the world.
        if extra["rollback_rows"] == 0:
            assert spec.n_calls_completed == trace.n_calls

    def test_worker_spec_equals_in_process(self):
        """Real worker processes equal their tasks run here, counter for
        counter; on a call-free trace both equal the in-process run."""
        trace = generate_scale_trace(total_agents=50, n_steps=15,
                                     scenario="smallville", base_seed=3)
        base = SchedulerConfig(policy="metropolis-spec",
                               validate_causality=True)
        single = run_replay(trace, base)
        workers = replace(base, parallel_workers=2)
        there = run_replay(trace, workers)
        here = run_parallel_replay(trace, workers, pool=InProcessPool())
        assert there.driver_stats.extra["parallel_workers"] == 2
        assert counters(there) == counters(here)
        assert there.completion_time == here.completion_time \
            == single.completion_time
        assert there.n_tasks_completed == single.n_tasks_completed
        assert there.driver_stats.extra["speculations"] == \
            single.driver_stats.extra["speculations"]


class TestSpeculationFeedback:
    """Satellite: the ledger feeds candidate *priority* — agents whose
    speculations misspeculated carry a decayed penalty that demotes
    their clusters in the wake x size ranking."""

    @staticmethod
    def _driver(trace, **kw):
        from repro.core.speculative import SpeculativeMetropolisDriver
        from repro.core.tasks import ChainExecutor
        from repro.devent import Kernel
        from repro.serving import ServingEngine

        kernel = Kernel()
        engine = ServingEngine(kernel, ServingConfig())
        config = SchedulerConfig(policy="metropolis-spec", **kw)
        executor = ChainExecutor(kernel, engine, trace, config.overhead)
        return SpeculativeMetropolisDriver(kernel, engine, trace, config,
                                           executor)

    def test_penalty_demotes_score(self):
        trace = disjoint_course_trace()
        drv = self._driver(trace)
        drv.graph.invocation_distance = lambda aid: 5.0
        assert drv._candidate_score([0, 1]) == pytest.approx(10.0)
        drv._spec_penalty[1] = 3.0  # worst member dominates
        assert drv._candidate_score([0, 1]) == pytest.approx(2.5)
        assert drv.stats.extra["spec_priority_demotions"] == 1

    def test_flag_off_ignores_penalty(self):
        trace = disjoint_course_trace()
        drv = self._driver(trace, speculation_feedback=False)
        drv.graph.invocation_distance = lambda aid: 5.0
        drv._spec_penalty[1] = 3.0
        assert drv._candidate_score([0, 1]) == pytest.approx(10.0)
        assert drv.stats.extra["spec_priority_demotions"] == 0

    def test_clean_retires_decay_the_penalty(self):
        trace = disjoint_course_trace()
        drv = self._driver(trace)
        drv._spec_penalty[1] = 2.0
        drv._spec_feedback([1], bad=False)
        assert drv._spec_penalty[1] == pytest.approx(1.0)
        drv._spec_feedback([1], bad=False)  # 0.5 -> dropped
        drv._spec_feedback([1], bad=False)
        assert 1 not in drv._spec_penalty
        drv._spec_feedback([1], bad=True)
        assert drv._spec_penalty[1] == pytest.approx(1.0)

    def test_ablation_on_misspeculating_worlds(self):
        """Flag on vs off over seeded dense worlds: the mechanism
        engages exactly under the flag, never changes committed state,
        and never increases wasted work (same candidates eventually
        launch; risky ones just go later)."""
        on_miss = off_miss = on_demos = 0
        for seed in range(6):
            trace = random_trace(seed=seed, n_agents=10, n_steps=40,
                                 width=12, height=12, p_call=0.5)
            on = _run(trace, "metropolis-spec", validate_causality=True)
            off = _run(trace, "metropolis-spec", validate_causality=True,
                       speculation_feedback=False)
            for r in (on, off):
                assert r.n_tasks_completed == 10 * 40
                _assert_ledger(r.driver_stats.extra)
            assert off.driver_stats.extra["spec_priority_demotions"] == 0
            on_miss += on.driver_stats.extra["misspeculations"]
            off_miss += off.driver_stats.extra["misspeculations"]
            on_demos += on.driver_stats.extra["spec_priority_demotions"]
        assert on_demos > 0
        assert on_miss <= off_miss


class TestSpecLedgerUnderFaults:
    """PR 8 fault injection: replica blackouts mid-run must reroute
    in-flight speculative chains without corrupting the ledger."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_ledger_survives_blackouts(self, seed):
        trace = random_trace(seed, n_agents=8, n_steps=30,
                             width=18, height=14, p_call=0.5)
        serving = ServingConfig(model="llama3-8b", gpu="l4", dp=2)
        clean = run_replay(trace,
                           SchedulerConfig(policy="metropolis-spec"),
                           serving)

        def hook(kernel, engine):
            kernel.call_at(clean.completion_time * 0.25,
                           engine.blackout_replica, 1)
            kernel.call_at(clean.completion_time * 0.6,
                           engine.blackout_replica, 0)

        result = run_replay(trace,
                            SchedulerConfig(policy="metropolis-spec",
                                            validate_causality=True),
                            serving, fault_hook=hook)
        assert result.n_tasks_completed == 8 * 30
        assert result.n_calls_completed >= trace.n_calls
        extra = result.driver_stats.extra
        _assert_ledger(extra)
        assert extra.get("replica_blackouts", 0) == 2
