"""Tests for the live (threaded) engine: workers, transactions, and the
OOO == lock-step equivalence under real concurrency."""

import threading
import time

import pytest

from repro.config import SchedulerConfig
from repro.errors import SchedulingError
from repro.live import EchoLLMClient, LiveSimulation, ThrottledLLMClient
from repro.live.environment import BehaviorProgram
from repro.world import BehaviorModel, build_smallville, make_personas

from helpers import live_state


def _program(n_agents=5, seed=4):
    world, homes = build_smallville()
    personas = make_personas(n_agents, seed=seed, homes=homes)
    return BehaviorProgram(BehaviorModel(world, personas, seed=seed))


class TestClients:
    def test_echo_counts(self):
        c = EchoLLMClient()
        c.complete("hi", 5)
        c.complete("hi", 5)
        assert c.calls == 2

    def test_throttled_latency_and_slots(self):
        c = ThrottledLLMClient(base_latency=0.001, per_token=0.0, slots=2)
        results = []

        def call():
            results.append(c.complete("p", 4))

        threads = [threading.Thread(target=call) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 4
        assert c.calls == 4


class TestLiveSimulation:
    def test_rejects_bad_target(self):
        sim = LiveSimulation(_program(), EchoLLMClient())
        with pytest.raises(SchedulingError):
            sim.run(0)

    def test_ooo_run_completes(self):
        client = EchoLLMClient()
        sim = LiveSimulation(_program(), client, num_workers=3)
        result = sim.run(target_step=40)
        assert result.clusters_executed >= 40  # at least one per agent-step
        assert result.max_step_spread >= 0
        assert len(result.final_positions) == 5

    def test_store_reflects_final_steps(self):
        sim = LiveSimulation(_program(), EchoLLMClient(), num_workers=2)
        sim.run(target_step=25)
        for aid in range(5):
            assert sim.store.hget(f"agent:{aid}", "step") == 25
        assert sim.store.get("commits") == sim._stats.clusters_executed

    def test_final_positions_are_the_committed_ones(self):
        """``final_positions`` reads the store, and the store holds each
        agent's position in the world after the last step."""
        program = _program()
        sim = LiveSimulation(program, EchoLLMClient(), num_workers=2)
        result = sim.run(target_step=15)
        for aid in range(5):
            assert result.final_positions[aid] == \
                sim.store.hget(f"agent:{aid}", "pos") == \
                program.position(aid)

    def test_a_run_leaves_earlier_stores_alone(self):
        """Each run commits into a store of its own: a store taken from
        run 1 still holds run 1's final state after run 2."""
        sim = LiveSimulation(_program(), EchoLLMClient(), num_workers=2)
        r1 = sim.run(target_step=5)
        first = sim.store
        r2 = sim.run(target_step=12, start_step=5)
        assert sim.store is not first
        assert first.get("commits") == r1.clusters_executed
        assert sim.store.get("commits") == r2.clusters_executed
        for aid in range(5):
            assert first.hget(f"agent:{aid}", "step") == 5
            assert sim.store.hget(f"agent:{aid}", "step") == 12

    def test_lockstep_mode(self):
        sim = LiveSimulation(
            _program(), EchoLLMClient(),
            scheduler=SchedulerConfig(policy="parallel-sync"),
            num_workers=2)
        result = sim.run(target_step=15)
        assert result.clusters_executed == 15  # one global cluster per step

    def test_worker_exception_surfaces(self):
        class Exploding:
            n_agents = 2

            def position(self, aid):
                return (aid * 50, 0)

            def execute(self, step, ids, client):
                raise RuntimeError("boom")

        sim = LiveSimulation(Exploding(), EchoLLMClient(), num_workers=1)
        with pytest.raises(SchedulingError, match="boom"):
            sim.run(target_step=3)

    def test_positions_read_in_bulk_not_per_commit(self):
        """Position reads are batched: one ``positions()`` bulk call at
        startup plus one per cluster commit (worker-side), and the
        engine never falls back to per-agent ``position()`` reads."""

        class CountingProgram(BehaviorProgram):
            def __init__(self, model):
                super().__init__(model)
                self.position_calls = 0
                self.positions_calls = 0
                self.positions_aids = 0

            def position(self, aid):
                self.position_calls += 1
                return super().position(aid)

            def positions(self, aids):
                aids = list(aids)
                self.positions_calls += 1
                self.positions_aids += len(aids)
                return super().positions(aids)

        world, homes = build_smallville()
        personas = make_personas(5, seed=4, homes=homes)
        program = CountingProgram(BehaviorModel(world, personas, seed=4))
        sim = LiveSimulation(program, EchoLLMClient(), num_workers=2)
        result = sim.run(target_step=25)
        # One startup bulk read + one bulk read per worker commit.
        assert program.positions_calls == 1 + result.clusters_executed
        assert program.positions_aids == \
            program.n_agents + result.cluster_size_sum
        # The engine itself derives no per-agent reads (the bulk hook
        # covers them); any regression to per-commit position() calls
        # fails here.
        assert program.position_calls == 0

    def test_program_without_bulk_hook_still_runs(self):
        """The ``positions`` hook is optional: per-agent fallback."""

        class MinimalProgram:
            def __init__(self, inner):
                self._inner = inner

            @property
            def n_agents(self):
                return self._inner.n_agents

            def position(self, aid):
                return self._inner.position(aid)

            def execute(self, step, agent_ids, client):
                self._inner.execute(step, agent_ids, client)

        sim = LiveSimulation(MinimalProgram(_program()), EchoLLMClient(),
                             num_workers=2)
        result = sim.run(target_step=10)
        assert len(result.final_positions) == 5

    def test_second_run_resets_state(self):
        """A reused LiveSimulation must not leak stats, sequence numbers
        or KV keys from the previous run (regression: counters and the
        ``commits`` key used to accumulate across runs)."""
        target1, target2 = 10, 20
        ooo = _program(n_agents=5, seed=7)
        sim = LiveSimulation(ooo, EchoLLMClient(), num_workers=2)
        r1 = sim.run(target_step=target1)
        assert sim.store.get("commits") == r1.clusters_executed
        # a key planted between runs does not survive the next run
        sim.store.hset("agent:99", "step", 123)
        r2 = sim.run(target_step=target2, start_step=target1)
        # stats and the store are per-run, not accumulated
        assert r2 is not r1
        assert r2.target_step == target2
        assert sim.store.get("commits") == r2.clusters_executed
        assert sim.store.hget("agent:99", "step") is None
        for aid in range(5):
            assert sim.store.hget(f"agent:{aid}", "step") == target2
        # and the world state still matches lock-step execution
        ref = _program(n_agents=5, seed=7)
        for step in range(target2):
            ref.model.step_all(step)
        assert [a.pos for a in ooo.model.agents] == \
            [a.pos for a in ref.model.agents]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_ooo_equals_lockstep_world_state(self, workers):
        """The paper's correctness claim under real threads."""
        target = 60
        # Lock-step reference on a fresh, identically-seeded world.
        ref = _program(n_agents=6, seed=9)
        for step in range(target):
            ref.model.step_all(step)
        ref_state = live_state(ref.model)

        ooo = _program(n_agents=6, seed=9)
        sim = LiveSimulation(ooo, EchoLLMClient(), num_workers=workers)
        sim.run(target_step=target)
        assert live_state(ooo.model) == ref_state

    def test_equivalence_with_wallclock_latency(self):
        """Racy timing (ThrottledLLMClient) must not change the outcome."""
        target = 30
        ref = _program(n_agents=4, seed=2)
        for step in range(target):
            ref.model.step_all(step)
        ref_positions = [a.pos for a in ref.model.agents]

        ooo = _program(n_agents=4, seed=2)
        client = ThrottledLLMClient(base_latency=0.0005, per_token=0.0)
        LiveSimulation(ooo, client, num_workers=4).run(target_step=target)
        assert [a.pos for a in ooo.model.agents] == ref_positions


class TestRun:
    def test_run_returns_result(self):
        sim = LiveSimulation(_program(), EchoLLMClient(), num_workers=2)
        result = sim.run(target_step=20)
        assert result.target_step == 20
        assert result.wall_time >= 0.0

    def test_priority_off_still_correct(self):
        sim = LiveSimulation(
            _program(n_agents=4, seed=6), EchoLLMClient(),
            scheduler=SchedulerConfig(priority=False), num_workers=2)
        result = sim.run(target_step=20)
        assert result.clusters_executed > 0


class TestShutdownHygiene:
    """The exception path must tear workers down, not leak them."""

    def test_threads_reaped_after_worker_failure(self):
        class Exploding:
            n_agents = 2

            def position(self, aid):
                return (aid * 50, 0)

            def execute(self, step, ids, client):
                raise RuntimeError("boom")

        baseline = threading.active_count()
        sim = LiveSimulation(Exploding(), EchoLLMClient(), num_workers=4)
        for _ in range(3):  # repeated failed runs must not accumulate
            with pytest.raises(SchedulingError):
                sim.run(target_step=3)
        deadline = time.monotonic() + 5.0
        while (threading.active_count() > baseline
               and time.monotonic() < deadline):
            time.sleep(0.005)
        assert threading.active_count() == baseline

    def test_threads_reaped_after_clean_run(self):
        baseline = threading.active_count()
        sim = LiveSimulation(_program(), EchoLLMClient(), num_workers=4)
        sim.run(target_step=5)
        deadline = time.monotonic() + 5.0
        while (threading.active_count() > baseline
               and time.monotonic() < deadline):
            time.sleep(0.005)
        assert threading.active_count() == baseline
