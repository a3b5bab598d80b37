"""Additional edge-case coverage across modules."""

from repro.config import SchedulerConfig, ServingConfig
from repro.core import run_replay
from repro.devent import Kernel
from repro.serving import ServingEngine
from repro.trace import generate_concatenated_trace

from helpers import random_trace


class TestMoEServing:
    def test_mixtral_runs_end_to_end(self):
        k = Kernel()
        engine = ServingEngine(k, ServingConfig(
            model="mixtral-8x7b", gpu="a100", dp=1, tp=2))
        done = []
        for _ in range(6):
            engine.generate(640, 22, on_complete=lambda r: done.append(r))
        k.run()
        assert len(done) == 6

    def test_moe_batching_gain_exceeds_dense(self):
        """MoE decode gets *relatively* cheaper iterations at batch 1
        (only top-k experts streamed), so its single-stream latency is
        much lower than dense-70B on the same hardware."""
        def single_latency(model, tp):
            k = Kernel()
            engine = ServingEngine(k, ServingConfig(
                model=model, gpu="a100", dp=1, tp=tp))
            engine.generate(640, 22)
            k.run()
            return engine.metrics.last_finish

        assert single_latency("mixtral-8x7b", 2) < \
            single_latency("llama3-70b", 4)


class TestIterationModePriority:
    def test_priority_respected_in_iteration_mode(self):
        k = Kernel()
        engine = ServingEngine(k, ServingConfig(
            model="llama3-8b", gpu="l4", max_running_requests=1))
        finished = []
        engine.generate(640, 50, priority=9.0,
                        on_complete=lambda r: finished.append(r))

        def late():
            engine.generate(640, 10, priority=5.0,
                            on_complete=lambda r: finished.append(r))
            engine.generate(640, 10, priority=1.0,
                            on_complete=lambda r: finished.append(r))

        k.call_at(0.05, late)
        k.run()
        by_priority = {r.priority: r.finish_time for r in finished}
        assert by_priority[1.0] < by_priority[5.0]


class TestConcatenatedReplay:
    def test_segments_unlock_extra_parallelism(self):
        """Two independent villes must run further OOO than one: distant
        segments never block each other, the paper's §4.3 argument."""
        day = generate_concatenated_trace(50, n_steps=2700)
        window = day.window(2340, 2640)  # 6:30-7:20am activity
        two_villes = run_replay(
            window, SchedulerConfig(policy="metropolis"),
            ServingConfig(model="llama3-8b", gpu="l4", dp=2))
        assert two_villes.n_calls_completed == window.n_calls
        # Cross-segment distances exceed any block threshold reachable in
        # this window, so the spread is unconstrained across segments.
        assert two_villes.driver_stats.max_step_spread > 0

    def test_cross_segment_isolation(self):
        day = generate_concatenated_trace(50, n_steps=100)
        seg_a = day.positions_by_step[:, :25, 0]
        seg_b = day.positions_by_step[:, 25:, 0]
        assert seg_a.max() < seg_b.min()


class TestRunReplayApi:
    def test_timeline_off_by_default(self, synthetic_trace, l4_serving):
        result = run_replay(synthetic_trace,
                            SchedulerConfig(policy="metropolis"), l4_serving)
        assert result.timeline is None

    def test_priority_flag_propagates_to_serving(self, synthetic_trace):
        # scheduler.priority=False turns the replicas' priority off too.
        engines = []
        result = run_replay(
            synthetic_trace,
            SchedulerConfig(policy="metropolis", priority=False),
            ServingConfig(model="llama3-8b", gpu="l4", dp=2),
            fault_hook=lambda kernel, engine: engines.append(engine))
        assert result.n_calls_completed == synthetic_trace.n_calls
        assert [r.priority_scheduling for r in engines[0].replicas] == \
            [False, False]

    def test_default_configs(self, synthetic_trace):
        result = run_replay(synthetic_trace)
        assert result.policy == "metropolis"

    def test_gpu_busy_fraction_bounds(self, synthetic_trace, l4_serving):
        result = run_replay(synthetic_trace,
                            SchedulerConfig(policy="metropolis"), l4_serving)
        assert 0.0 < result.gpu_busy_fraction <= 1.0


class TestTraceWindowComposition:
    def test_double_window_base_step(self, synthetic_trace):
        w1 = synthetic_trace.window(5, 35)
        w2 = w1.window(10, 20)
        assert w2.meta.base_step == 15
        assert w2.meta.n_steps == 10

    def test_window_preserves_chains(self, synthetic_trace):
        w = synthetic_trace.window(10, 30)
        for aid in range(w.meta.n_agents):
            for step in range(w.meta.n_steps):
                got = w.chain_slice(aid, step)
                want = synthetic_trace.chain_slice(aid, step + 10)
                for col in ("call_func", "call_in", "call_out"):
                    assert getattr(w, col)[got].tolist() == \
                        getattr(synthetic_trace, col)[want].tolist()

    def test_func_name_roundtrip(self, synthetic_trace):
        if synthetic_trace.n_calls:
            fid = int(synthetic_trace.call_func[0])
            assert isinstance(synthetic_trace.func_name(fid), str)


class TestSchedulerRobustness:
    def test_empty_call_trace_completes_fast(self):
        trace = random_trace(seed=9, n_agents=4, n_steps=30, p_call=0.0)
        assert trace.n_calls == 0
        result = run_replay(trace, SchedulerConfig(policy="metropolis"),
                            ServingConfig(model="llama3-8b", gpu="l4"))
        assert result.n_tasks_completed == 4 * 30
        assert result.completion_time < 60.0  # overhead only

    def test_single_agent_trace(self):
        trace = random_trace(seed=10, n_agents=1, n_steps=20)
        for policy in ("metropolis", "oracle", "parallel-sync"):
            result = run_replay(trace, SchedulerConfig(policy=policy),
                                ServingConfig(model="llama3-8b", gpu="l4"))
            assert result.n_calls_completed == trace.n_calls

    def test_dense_crowd_trace(self):
        """All agents packed in one corner: everything couples; the OOO
        scheduler must degrade to lock-step clusters, not deadlock."""
        trace = random_trace(seed=11, n_agents=8, n_steps=25,
                             width=4, height=4)
        result = run_replay(trace,
                            SchedulerConfig(policy="metropolis",
                                            validate_causality=True),
                            ServingConfig(model="llama3-8b", gpu="l4"))
        assert result.n_calls_completed == trace.n_calls
        assert result.driver_stats.mean_cluster_size > 4.0
