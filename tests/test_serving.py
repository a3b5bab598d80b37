"""Tests for the simulated serving engine: profiles, perf model, memory,
replicas (both fidelities), router and metrics."""

import pytest

from repro.config import ServingConfig
from repro.devent import Kernel
from repro.errors import CapacityError, ConfigError
from repro.serving import (GPUS, MODELS, LLMRequest, PerfModel,
                           ServingEngine, get_gpu, get_model)
from repro.serving.memory import KVCacheManager


class TestProfiles:
    def test_registry_contents(self):
        assert {"l4", "a100"} <= set(GPUS)
        assert {"llama3-8b", "llama3-70b", "mixtral-8x7b"} <= set(MODELS)

    def test_unknown_names(self):
        with pytest.raises(ConfigError):
            get_gpu("h100")
        with pytest.raises(ConfigError):
            get_model("gpt-5")

    def test_weight_bytes_fp16(self):
        model = get_model("llama3-8b")
        assert model.weight_bytes == pytest.approx(2 * 8.03e9)

    def test_kv_bytes_per_token(self):
        # 2 (K,V) * layers * kv_heads * head_dim * 2 bytes
        m8 = get_model("llama3-8b")
        assert m8.kv_bytes_per_token == 2 * 32 * 8 * 128 * 2
        m70 = get_model("llama3-70b")
        assert m70.kv_bytes_per_token == 2 * 80 * 8 * 128 * 2

    def test_moe_expert_utilization_monotone(self):
        mix = get_model("mixtral-8x7b")
        utils = [mix.expert_utilization(b) for b in (1, 4, 16, 64)]
        assert utils == sorted(utils)
        assert utils[0] == pytest.approx(0.25)  # top-2 of 8 at batch 1
        assert utils[-1] < 1.0
        assert mix.expert_utilization(1e9) == pytest.approx(1.0)

    def test_dense_effective_weights_constant(self):
        m = get_model("llama3-8b")
        assert m.effective_weight_bytes(1) == m.effective_weight_bytes(64)

    def test_moe_effective_weights_grow(self):
        mix = get_model("mixtral-8x7b")
        assert mix.effective_weight_bytes(1) < mix.effective_weight_bytes(32)
        assert mix.effective_weight_bytes(1e9) == \
            pytest.approx(mix.weight_bytes)


class TestPerfModel:
    def setup_method(self):
        self.pm = PerfModel(get_model("llama3-8b"), get_gpu("l4"))

    def test_decode_memory_bound_at_small_batch(self):
        # Iteration latency should be nearly flat from bs=1 to bs=8.
        t1 = self.pm.decode_iteration_time(1, 0)
        t8 = self.pm.decode_iteration_time(8, 0)
        assert t8 < 1.05 * t1

    def test_decode_compute_bound_at_large_batch(self):
        sat = self.pm.saturation_batch_size()
        t = self.pm.decode_iteration_time(int(sat * 4), 0)
        assert t > 2 * self.pm.decode_iteration_time(1, 0)

    def test_kv_grows_iteration_time(self):
        assert self.pm.decode_iteration_time(4, 100_000) > \
            self.pm.decode_iteration_time(4, 0)

    def test_prefill_linear_in_tokens(self):
        base = self.pm.prefill_time(0)
        t1k = self.pm.prefill_time(1000)
        t2k = self.pm.prefill_time(2000)
        assert t2k - t1k == pytest.approx(t1k - base, rel=1e-9)

    def test_prefill_rejects_negative(self):
        with pytest.raises(ConfigError):
            self.pm.prefill_time(-1)

    def test_decode_rejects_empty_batch(self):
        with pytest.raises(ConfigError):
            self.pm.decode_iteration_time(0, 0)

    def test_tp_speeds_up_decode(self):
        pm70_tp4 = PerfModel(get_model("llama3-70b"), get_gpu("a100"), tp=4)
        pm70_tp8 = PerfModel(get_model("llama3-70b"), get_gpu("a100"), tp=8)
        assert pm70_tp8.decode_iteration_time(1, 0) < \
            pm70_tp4.decode_iteration_time(1, 0)

    def test_model_must_fit(self):
        with pytest.raises(ConfigError):
            PerfModel(get_model("llama3-70b"), get_gpu("l4"), tp=1)

    def test_kv_capacity_positive_and_scaled(self):
        cap1 = self.pm.kv_capacity_tokens
        assert cap1 > 10_000
        pm_less = PerfModel(get_model("llama3-8b"), get_gpu("l4"),
                            kv_memory_fraction=0.45)
        assert pm_less.kv_capacity_tokens < cap1

    def test_request_service_time_composition(self):
        t = self.pm.request_service_time(600, 20)
        assert t > self.pm.prefill_time(600)
        assert t > 20 * self.pm.decode_iteration_time(1, 0)


class TestKVCacheManager:
    def _req(self, rid, prompt=100, out=10):
        return LLMRequest(request_id=rid, prompt_tokens=prompt,
                          output_tokens=out)

    def test_reserve_release(self):
        mgr = KVCacheManager(1000)
        r = self._req(1, 600, 100)
        assert mgr.fits(r)
        mgr.reserve(r)
        assert mgr.reserved_tokens == 700
        mgr.release(r)
        assert mgr.reserved_tokens == 0

    def test_rejects_overflow(self):
        mgr = KVCacheManager(500)
        mgr.reserve(self._req(1, 300, 100))
        with pytest.raises(CapacityError):
            mgr.reserve(self._req(2, 200, 100))

    def test_rejects_double_reserve(self):
        mgr = KVCacheManager(1000)
        r = self._req(1)
        mgr.reserve(r)
        with pytest.raises(CapacityError):
            mgr.reserve(r)

    def test_release_unknown(self):
        with pytest.raises(CapacityError):
            KVCacheManager(100).release(self._req(1))

    def test_check_feasible(self):
        mgr = KVCacheManager(100)
        with pytest.raises(CapacityError):
            mgr.check_feasible(self._req(1, 200, 10))

    def test_zero_capacity_rejected(self):
        with pytest.raises(CapacityError):
            KVCacheManager(0)

    def test_utilization(self):
        mgr = KVCacheManager(1000)
        mgr.reserve(self._req(1, 400, 100))
        assert mgr.utilization == pytest.approx(0.5)


def _run_workload(requests, dp=1, priority=True, max_running=256):
    """Submit (prompt, out, priority, at_time) tuples; return engine."""
    k = Kernel()
    engine = ServingEngine(k, ServingConfig(
        model="llama3-8b", gpu="l4", dp=dp,
        priority_scheduling=priority, max_running_requests=max_running))
    finished = []
    for prompt, out, prio, at in requests:
        def submit(p=prompt, o=out, pr=prio):
            engine.generate(p, o, priority=pr,
                            on_complete=lambda r: finished.append(r))
        k.call_at(at, submit)
    k.run()
    return engine, finished


class TestReplicas:
    WORKLOAD = [(640, 22, 0.0, 0.0), (300, 10, 0.0, 0.0),
                (900, 40, 1.0, 0.5), (100, 5, 1.0, 2.0),
                (640, 22, 2.0, 2.0), (500, 30, 2.0, 4.0)]

    def test_all_complete(self):
        engine, finished = _run_workload(self.WORKLOAD)
        assert len(finished) == len(self.WORKLOAD)
        assert engine.idle()

    def test_request_lifecycle_timestamps(self):
        _, finished = _run_workload([(640, 22, 0.0, 1.0)])
        r = finished[0]
        assert r.submit_time == pytest.approx(1.0)
        assert r.prefill_start >= r.submit_time
        assert r.decode_start > r.prefill_start
        assert r.finish_time > r.decode_start
        assert r.latency > 0

    def test_batching_beats_serial(self):
        # 8 identical requests at t=0 must finish far faster than 8x one
        # request (continuous batching on memory-bound decode).
        single, _ = _run_workload([(640, 22, 0.0, 0.0)])
        t_single = single.metrics.last_finish
        batch, _ = _run_workload([(640, 22, 0.0, 0.0)] * 8)
        t_batch = batch.metrics.last_finish
        assert t_batch < 0.45 * (8 * t_single)

    def test_priority_order_served_first(self):
        # Serve one request at a time: a head start for the step-9 batch,
        # then a step-9 and a step-1 arrival — step 1 must be served next.
        requests = [(640, 50, 9.0, 0.0),
                    (640, 10, 5.0, 0.1), (640, 10, 1.0, 0.1)]
        _, finished = _run_workload(requests, max_running=1)
        by_priority = {r.priority: r.finish_time for r in finished}
        assert by_priority[1.0] < by_priority[5.0]

    def test_fcfs_when_priority_disabled(self):
        requests = [(640, 50, 9.0, 0.0),
                    (640, 10, 5.0, 0.1), (640, 10, 1.0, 0.12)]
        _, finished = _run_workload(requests, priority=False,
                                    max_running=1)
        by_priority = {r.priority: r.finish_time for r in finished}
        assert by_priority[5.0] < by_priority[1.0]  # arrival order wins

    def test_infeasible_request_raises(self):
        k = Kernel()
        engine = ServingEngine(k, ServingConfig(model="llama3-8b", gpu="l4"))
        too_big = engine.kv_capacity_tokens + 1
        with pytest.raises(CapacityError):
            engine.generate(too_big, 1)

    def test_memory_admission_queues(self):
        """Requests beyond KV capacity wait rather than failing."""
        k = Kernel()
        engine = ServingEngine(k, ServingConfig(
            model="llama3-8b", gpu="l4"))
        cap = engine.kv_capacity_tokens
        big_prompt = int(cap * 0.6)
        done = []
        for i in range(3):  # 3 x 0.6 cap: only one fits at a time
            engine.generate(big_prompt, 8,
                            on_complete=lambda r: done.append(r))
        k.run()
        assert len(done) == 3
        # They must have been serialized: no overlap of decode intervals.
        intervals = sorted((r.decode_start, r.finish_time) for r in done)
        for (_, end_a), (start_b, _) in zip(intervals, intervals[1:]):
            assert start_b >= end_a - 1e-6


class TestEngineRouting:
    def test_dp_spreads_load(self):
        engine, finished = _run_workload([(640, 22, 0.0, 0.0)] * 8, dp=4)
        replicas_used = {r.replica_id for r in finished}
        assert len(replicas_used) == 4

    def test_dp_speeds_up_parallel_workload(self):
        one, _ = _run_workload([(640, 22, 0.0, 0.0)] * 16, dp=1)
        four, _ = _run_workload([(640, 22, 0.0, 0.0)] * 16, dp=4)
        assert four.metrics.last_finish < one.metrics.last_finish

    def test_metrics_accounting(self):
        engine, finished = _run_workload(
            [(100, 10, 0.0, 0.0), (200, 20, 0.0, 0.0)])
        m = engine.metrics
        assert m.completed == 2
        assert m.total_prompt_tokens == 300
        assert m.total_output_tokens == 30
        assert m.mean_latency() > 0
        assert m.throughput_tokens_per_s() > 0

    def test_achieved_parallelism_bounds(self):
        engine, _ = _run_workload([(640, 22, 0.0, 0.0)] * 4)
        par = engine.metrics.achieved_parallelism()
        assert 1.0 <= par <= 4.0

    def test_busy_fraction(self):
        engine, _ = _run_workload([(640, 22, 0.0, 0.0)])
        makespan = engine.metrics.last_finish
        assert 0.5 < engine.busy_fraction(makespan) <= 1.0


class TestBatchSubmission:
    def test_generate_batch_matches_sequential_generates(self):
        """One whole-cluster handoff = the same calls one at a time."""
        specs = [(aid, 640, 22, float(aid), None, None)
                 for aid in range(5)]

        def run(batched):
            k = Kernel()
            engine = ServingEngine(k, ServingConfig())
            if batched:
                engine.generate_batch(specs)
            else:
                for aid, p, o, prio, cb, ctx in specs:
                    engine.generate(p, o, priority=prio, on_complete=cb,
                                    context=ctx, agent_id=aid)
            k.run()
            return k.now, engine.metrics.completed

        assert run(batched=True) == run(batched=False)

    def test_batch_requests_carry_agent_ids(self):
        k = Kernel()
        engine = ServingEngine(k, ServingConfig())
        reqs = engine.generate_batch(
            [(7, 100, 5, 0.0, None, None), (9, 100, 5, 0.0, None, None)])
        assert [r.agent_id for r in reqs] == [7, 9]
        k.run()


class TestRequestValidation:
    def test_rejects_bad_tokens(self):
        with pytest.raises(ConfigError):
            LLMRequest(request_id=1, prompt_tokens=-1, output_tokens=5)
        with pytest.raises(ConfigError):
            LLMRequest(request_id=1, prompt_tokens=10, output_tokens=0)

    def test_latency_requires_finish(self):
        r = LLMRequest(request_id=1, prompt_tokens=10, output_tokens=5)
        with pytest.raises(ConfigError):
            _ = r.latency
