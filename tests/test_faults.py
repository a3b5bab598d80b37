"""Tests for the fault-tolerance subsystem (``repro.faults``): chaos
injection, the resilient client (retry/backoff/breaker/fallback), the
live engine's abort-and-redispatch + watchdog paths, serving-replica
blackouts, and the fault accounting surfaced on results.
"""

import threading
import time

import pytest

from repro.bench.chaos import REQUIRED_PATHS, SCHEDULES, chaos_cell
from repro.config import SchedulerConfig, ServingConfig
from repro.devent import Kernel
from repro.errors import (ConfigError, LLMCallError, SchedulingError,
                          ServingError, TransientLLMError)
from repro.faults import (ChaosClient, CircuitBreaker, FallbackLLMClient,
                          FaultSchedule, FaultStats, ResilientClient,
                          scheduler_diagnostics)
from repro.live import EchoLLMClient, LiveSimulation
from repro.serving import ServingEngine
from repro.serving.replica import IterationReplica

from helpers import PerIterationReplica, per_iteration_oracle
from helpers import fast_fault_policy as _fast_policy


class TestFaultSchedule:
    def test_seeded_stream_is_reproducible(self):
        a = FaultSchedule(seed=7, transient_rate=0.3, hard_rate=0.2,
                          straggler_rate=0.1)
        b = FaultSchedule(seed=7, transient_rate=0.3, hard_rate=0.2,
                          straggler_rate=0.1)
        assert [a.next_verdict() for _ in range(200)] == \
            [b.next_verdict() for _ in range(200)]

    def test_burst_forces_hard_failures_first(self):
        sched = FaultSchedule(seed=0, burst=3)
        kinds = [sched.next_verdict()[0] for _ in range(5)]
        assert kinds[:3] == ["hard"] * 3
        assert kinds[3:] == [None, None]  # no rates: clean after burst

    def test_rate_validation(self):
        with pytest.raises(ConfigError):
            FaultSchedule(transient_rate=1.5)
        with pytest.raises(ConfigError):
            FaultSchedule(burst=-1)
        with pytest.raises(ConfigError):
            FaultSchedule(straggler_delay=-0.1)


class TestChaosClient:
    def test_hard_fault_raises_and_counts(self):
        client = ChaosClient(EchoLLMClient(),
                             FaultSchedule(seed=0, hard_rate=1.0))
        with pytest.raises(LLMCallError):
            client.complete("p", 8)
        assert client.injected["hard"] == 1

    def test_transient_fault_raises_and_counts(self):
        client = ChaosClient(EchoLLMClient(),
                             FaultSchedule(seed=0, transient_rate=1.0))
        with pytest.raises(TransientLLMError):
            client.complete("p", 8)
        assert client.injected["transient"] == 1

    def test_clean_call_delegates(self):
        inner = EchoLLMClient()
        client = ChaosClient(inner, FaultSchedule(seed=0))
        out = client.complete("p", 8)
        assert inner.calls == 1 and out

    def test_straggler_delays_then_delegates(self):
        inner = EchoLLMClient()
        client = ChaosClient(
            inner, FaultSchedule(seed=0, straggler_rate=1.0,
                                 straggler_delay=0.01))
        started = time.monotonic()
        client.complete("p", 8)
        assert time.monotonic() - started >= 0.01
        assert client.injected["straggler"] == 1 and inner.calls == 1


class _FlakyClient:
    """Fails the first ``fail_n`` calls with ``exc``, then echoes."""

    def __init__(self, fail_n: int, exc=TransientLLMError) -> None:
        self.fail_n = fail_n
        self.exc = exc
        self.calls = 0

    def complete(self, prompt, max_tokens, priority=0.0):
        self.calls += 1
        if self.calls <= self.fail_n:
            raise self.exc("flaky")
        return "ok"


class TestCircuitBreaker:
    """The circuit is open between an ``opens`` and the next ``closes``."""

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=2, cooldown=60.0)
        breaker.record_failure()
        assert breaker.opens == 0 and breaker.allow_call()
        breaker.record_failure()
        assert breaker.opens == 1
        assert not breaker.allow_call()

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown=60.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.opens == 0 and breaker.allow_call()

    def test_half_open_trial_closes_on_success(self):
        breaker = CircuitBreaker(threshold=1, cooldown=0.01)
        breaker.record_failure()
        assert breaker.opens == 1
        time.sleep(0.02)
        assert breaker.allow_call()  # the half-open trial
        assert not breaker.allow_call()  # only one trial in flight
        breaker.record_success()
        assert breaker.closes == 1
        assert breaker.allow_call()

    def test_failed_trial_restarts_cooldown(self):
        breaker = CircuitBreaker(threshold=1, cooldown=0.05)
        breaker.record_failure()
        time.sleep(0.06)
        assert breaker.allow_call()
        breaker.record_failure()
        assert breaker.opens == 1 and breaker.closes == 0
        assert not breaker.allow_call()  # cooldown restarted


class TestResilientClient:
    def test_transient_failures_retried_to_success(self):
        inner = _FlakyClient(fail_n=2)
        client = ResilientClient(inner, _fast_policy(max_call_retries=3))
        assert client.complete("p", 8) == "ok"
        assert client.retries == 2 and inner.calls == 3

    def test_budget_exhausted_raises_hard(self):
        inner = _FlakyClient(fail_n=100)
        client = ResilientClient(inner, _fast_policy(max_call_retries=2))
        with pytest.raises(LLMCallError, match="after 3 attempts"):
            client.complete("p", 8)
        assert inner.calls == 3 and client.failures == 1

    def test_hard_failure_propagates_immediately(self):
        inner = _FlakyClient(fail_n=100, exc=LLMCallError)
        client = ResilientClient(inner, _fast_policy(max_call_retries=5))
        with pytest.raises(LLMCallError):
            client.complete("p", 8)
        assert inner.calls == 1  # hard failures are never retried in-place

    def test_slow_call_counts_as_timeout_and_retries(self):
        class Slow:
            calls = 0

            def complete(self, prompt, max_tokens, priority=0.0):
                self.calls += 1
                if self.calls == 1:
                    time.sleep(0.05)
                return "ok"

        inner = Slow()
        client = ResilientClient(
            inner, _fast_policy(call_timeout=0.01, max_call_retries=1))
        assert client.complete("p", 8) == "ok"
        assert client.timeouts == 1 and client.retries == 1

    def test_open_breaker_serves_fallback(self):
        fallback = FallbackLLMClient("degraded plan")
        inner = _FlakyClient(fail_n=100, exc=LLMCallError)
        client = ResilientClient(
            inner, _fast_policy(breaker_threshold=1,
                                breaker_cooldown=60.0),
            fallback=fallback)
        with pytest.raises(LLMCallError):
            client.complete("p", 8)
        assert client.breaker.opens == 1
        assert client.complete("p", 8) == "degraded plan"
        assert client.degraded == 1 and fallback.calls == 1
        assert inner.calls == 1  # primary untouched while open

    def test_backoff_stream_is_seeded(self):
        a = ResilientClient(_FlakyClient(2), _fast_policy(seed=3))
        b = ResilientClient(_FlakyClient(2), _fast_policy(seed=3))
        assert [a._rng.random() for _ in range(8)] == \
            [b._rng.random() for _ in range(8)]


class TestDiagnosticsAndStats:
    def test_diagnostics_sections(self):
        text = scheduler_diagnostics(
            done=3, total=10, blocked={1: [2], 4: [5, 6]}, running=[7],
            ready_depth=2, ack_depth=0, last_ack_age=1.5, redispatches=4)
        assert "progress: 3/10 agents done" in text
        assert "blocked pairs (2 agents)" in text
        assert "running clusters (1 agents)" in text
        assert "ready=2 ack=0" in text
        assert "redispatches so far: 4" in text

    def test_diagnostics_truncates_long_lists(self):
        blocked = {i: [i + 1] for i in range(50)}
        text = scheduler_diagnostics(done=0, total=60, blocked=blocked)
        assert "(+30 more)" in text

    def test_fault_stats_flattens_injected(self):
        stats = FaultStats(llm_retries=2, injected={"hard": 3})
        flat = stats.as_dict()
        assert flat["llm_retries"] == 2
        assert flat["injected_hard"] == 3
        assert stats.any_faults


class _GridProgram:
    """Far-apart agents, one deterministic move + LLM call per step."""

    def __init__(self, n_agents: int = 4) -> None:
        self.n_agents = n_agents
        self._pos = {aid: (0.0, float(aid) * 1000.0)
                     for aid in range(n_agents)}
        self._stepped: dict[int, int] = {}

    def position(self, aid):
        return self._pos[aid]

    def execute(self, step, agent_ids, client):
        for aid in agent_ids:
            if self._stepped.get(aid, -1) < step:  # idempotent re-delivery
                x, y = self._pos[aid]
                self._pos[aid] = (x + 1.0, y)
                self._stepped[aid] = step
            client.complete(f"agent {aid} step {step}", 8,
                            priority=float(step))


class TestLiveEngineFaultTolerance:
    def test_clean_run_reports_zero_faults(self):
        sim = LiveSimulation(_GridProgram(), EchoLLMClient(),
                             scheduler=SchedulerConfig(
                                 faults=_fast_policy()),
                             num_workers=2)
        result = sim.run(target_step=3)
        assert not result.faults.any_faults
        assert result.final_positions[0] == (3.0, 0.0)

    def test_transient_chaos_absorbed_by_retries(self):
        sim = LiveSimulation(
            _GridProgram(),
            ChaosClient(EchoLLMClient(),
                        FaultSchedule(seed=1, transient_rate=0.4)),
            scheduler=SchedulerConfig(
                faults=_fast_policy(max_call_retries=8)),
            num_workers=2)
        result = sim.run(target_step=5)
        assert result.faults.llm_retries >= 1
        assert result.faults.injected.get("transient", 0) >= 1
        assert result.faults.aborted_clusters == 0
        for aid in range(4):
            assert result.final_positions[aid][0] == 5.0

    def test_tx_retries_stay_zero_under_chaos(self):
        """A write batch cannot conflict: both ``tx_retries`` fields read
        0 and no ``tx_conflicts`` are injected, even when LLM calls fail
        and clusters are redispatched."""
        sim = LiveSimulation(
            _GridProgram(),
            ChaosClient(EchoLLMClient(),
                        FaultSchedule(seed=2, transient_rate=0.3,
                                      hard_rate=0.1)),
            scheduler=SchedulerConfig(
                faults=_fast_policy(max_call_retries=8)),
            num_workers=2)
        result = sim.run(target_step=5)
        assert result.faults.any_faults
        assert result.faults.tx_retries == 0
        assert sim.store.tx_retries == 0
        assert "tx_conflicts" not in result.faults.injected
        # aborted clusters commit nothing; every other one commits once
        assert result.faults.aborted_clusters
        assert sim.store.get("commits") == \
            result.clusters_executed - result.faults.aborted_clusters

    def test_hard_failures_abort_and_redispatch(self):
        sim = LiveSimulation(
            _GridProgram(),
            ChaosClient(EchoLLMClient(),
                        FaultSchedule(seed=2, hard_rate=0.3)),
            scheduler=SchedulerConfig(faults=_fast_policy()),
            num_workers=2)
        result = sim.run(target_step=5)
        assert result.faults.aborted_clusters >= 1
        assert result.faults.redispatches >= 1
        assert result.faults.leaked_workers == 0
        for aid in range(4):
            assert result.final_positions[aid][0] == 5.0

    def test_persistent_failure_degrades_to_fallback(self):
        fallback = FallbackLLMClient()
        sim = LiveSimulation(
            _GridProgram(n_agents=2),
            ChaosClient(EchoLLMClient(),
                        FaultSchedule(seed=0, hard_rate=1.0)),
            scheduler=SchedulerConfig(
                faults=_fast_policy(max_redispatches=1,
                                    breaker_threshold=100)),
            num_workers=2, fallback_client=fallback)
        result = sim.run(target_step=2)
        assert result.faults.degraded_completions >= 1
        assert fallback.calls >= 1
        for aid in range(2):
            assert result.final_positions[aid][0] == 2.0

    def test_burst_opens_breaker(self):
        sim = LiveSimulation(
            _GridProgram(n_agents=2),
            ChaosClient(EchoLLMClient(), FaultSchedule(seed=0, burst=4)),
            scheduler=SchedulerConfig(
                faults=_fast_policy(breaker_threshold=2,
                                    breaker_cooldown=60.0)),
            num_workers=2)
        result = sim.run(target_step=3)
        assert result.faults.breaker_opens >= 1
        assert result.faults.degraded_completions >= 1

    def test_lockstep_mode_redispatches_too(self):
        sim = LiveSimulation(
            _GridProgram(),
            ChaosClient(EchoLLMClient(),
                        FaultSchedule(seed=3, hard_rate=0.2)),
            scheduler=SchedulerConfig(policy="parallel-sync",
                                      faults=_fast_policy()),
            num_workers=2)
        result = sim.run(target_step=4)
        assert result.faults.redispatches >= 1
        for aid in range(4):
            assert result.final_positions[aid][0] == 4.0

    def test_watchdog_converts_hang_into_diagnostic_error(self):
        class Hanging:
            def __init__(self):
                self.release = threading.Event()
                self._first = True
                self._lock = threading.Lock()

            def complete(self, prompt, max_tokens, priority=0.0):
                with self._lock:
                    hang, self._first = self._first, False
                if hang:
                    self.release.wait()
                return "ok"

        client = Hanging()
        sim = LiveSimulation(
            _GridProgram(n_agents=2), client,
            scheduler=SchedulerConfig(
                faults=_fast_policy(watchdog_timeout=0.2,
                                    worker_join_grace=0.1,
                                    call_timeout=3600.0)),
            num_workers=1)
        started = time.monotonic()
        with pytest.raises(SchedulingError, match="watchdog"):
            sim.run(target_step=3)
        assert time.monotonic() - started < 5.0
        client.release.set()

    def test_scenario_fallback_client_hook(self):
        from repro.scenarios import get_scenario
        client = get_scenario("smallville").fallback_client()
        assert client.complete("p", 8)


class TestChaosGate:
    """``repro-bench chaos`` cells, run here on one scenario and seed."""

    @pytest.mark.parametrize("kind", SCHEDULES)
    def test_cell_matches_lock_step_and_exercises_its_path(self, kind):
        from repro.scenarios import get_scenario
        cell = chaos_cell(get_scenario("smallville"), kind, seed=0)
        assert cell["state_identical"]
        assert cell["required_paths"] == list(REQUIRED_PATHS[kind])
        assert cell["unexercised_paths"] == []
        assert cell["ok"]

    def test_unknown_schedule_rejected(self):
        from repro.scenarios import get_scenario
        with pytest.raises(ValueError, match="unknown chaos schedule"):
            chaos_cell(get_scenario("smallville"), "storm", seed=0)


class TestReplicaBlackout:
    def _engine(self, kv_policy: str = "none"):
        kernel = Kernel()
        engine = ServingEngine(kernel, ServingConfig(dp=2,
                                                     kv_policy=kv_policy))
        return kernel, engine

    def test_inflight_requests_rerouted_and_served(self):
        kernel, engine = self._engine()
        done = []
        for i in range(8):
            engine.generate(prompt_tokens=400, output_tokens=20,
                            on_complete=lambda r: done.append(r.request_id),
                            agent_id=i)
        kernel.call_at(1e-4, engine.blackout_replica, 1)
        kernel.run()
        assert sorted(done) == list(range(1, 9))  # every call served once
        assert engine.replica_blackouts == 1
        assert engine.rerouted_requests >= 1
        assert engine.idle()

    def test_retained_kv_lost_on_blackout(self):
        kernel, engine = self._engine(kv_policy="lru")
        for i in range(4):
            engine.generate(prompt_tokens=400, output_tokens=20,
                            agent_id=i)
        kernel.run()
        victim = next(r for r in engine.replicas
                      if r.kv.retained_tokens > 0)
        retained = victim.kv.retained_tokens
        engine.blackout_replica(victim.replica_id)
        assert engine.lost_retained_tokens == retained
        fresh = engine.replicas[victim.replica_id]
        assert fresh is not victim and fresh.kv.retained_tokens == 0

    def test_busy_time_and_kv_stats_carried(self):
        kernel, engine = self._engine(kv_policy="lru")
        for i in range(4):
            engine.generate(prompt_tokens=400, output_tokens=20,
                            agent_id=i)
        kernel.run()
        before = engine.kv_stats()
        busy_before = sum(r.busy_time for r in engine.replicas)
        engine.blackout_replica(0)
        after = engine.kv_stats()
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]
        assert engine.busy_fraction(1.0) == pytest.approx(
            busy_before / len(engine.replicas))
        stats = engine.fault_stats()
        assert stats["replica_blackouts"] == 1

    def test_busy_time_carried_from_mid_decode(self):
        """A replica that dies decoding was busy until it died: the
        iteration in flight is charged in full."""
        kernel, engine = self._engine()
        request = engine.generate(prompt_tokens=400, output_tokens=400)
        kernel.call_at(5.0, engine.blackout_replica, request.replica_id)
        kernel.run()
        assert 5.0 <= engine._carry_busy_time < 5.05

    def test_replacement_is_built_like_the_first_replicas(self):
        """A blackout's fresh replica comes from the engine's one
        replica seam: an ``IterationReplica``, or the per-iteration
        oracle while ``per_iteration_oracle`` swaps it."""
        _, engine = self._engine()
        engine.blackout_replica(1)
        assert [type(r) for r in engine.replicas] == [IterationReplica] * 2
        with per_iteration_oracle():
            _, engine = self._engine()
            engine.blackout_replica(1)
        assert [type(r) for r in engine.replicas] == \
            [PerIterationReplica] * 2

    def test_blackout_of_unknown_replica_raises(self):
        _, engine = self._engine()
        with pytest.raises(ServingError):
            engine.blackout_replica(5)
