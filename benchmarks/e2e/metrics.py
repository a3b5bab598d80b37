"""The benchmark's vocabulary: workload and metric names, units, bounds.

Later issues cite these names verbatim. ``BENCHMARK.json`` at the root
of the repo is :func:`benchmark_json` written out; a test keeps the two
equal, so edit this file and regenerate the JSON, never the JSON alone.

Simulated (``sim``) values are virtual time and repeat exactly; host
values are wall-clock and carry the sandbox's noise.
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 10

#: name -> why this workload exists (one line each, <= 200 characters).
WORKLOADS: dict[str, str] = {
    "ville_active": (
        "smallville active window on 8 GPUs: coordinate-metric controller "
        "hot path, dependency_graph's vectorised commit does most of the "
        "host work, serving little"),
    "graph_active": (
        "social-graph active window: same driver on the hop-metric "
        "GraphSpace and the scalar commit path; a coordinate-path gain "
        "that costs the graph path shows here"),
    "busy_kv": (
        "smallville busy hour on one L4, iteration fidelity, KV under "
        "pressure with distance eviction: call-dense and GPU-bound, so "
        "serving, devent and tasks carry the host time"),
    "shard_mp": (
        "tiled smallville over 6 shards in 2 worker processes: the only "
        "path through plan_regions, share_positions, ShardWorkerPool and "
        "the ledger merge, with agents awake"),
    "live_threads": (
        "LiveSimulation with 2 worker threads on a throttled client, "
        "closed loop: the only workload on live, kvstore, "
        "faults.ResilientClient and in-loop world.behavior stepping"),
}

REPLAY = ("ville_active", "graph_active", "busy_kv", "shard_mp")
IN_PROCESS_REPLAY = ("ville_active", "graph_active", "busy_kv")
ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    #: Workloads that produce it; the others omit it, never report zero.
    where: tuple[str, ...]
    #: Virtual-time value that must repeat exactly for one seed.
    exact: bool = False


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, ALL),
    EndToEnd("host_s_per_agent_day", "s", "lower", 0.25, ALL),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10, ALL),
    EndToEnd("sim_completion_s", "s", "lower", 1e-9, REPLAY, exact=True),
    EndToEnd("sim_speedup_vs_sync", "ratio", "higher", 1e-9,
             IN_PROCESS_REPLAY, exact=True),
    EndToEnd("sim_frac_of_oracle", "ratio", "higher", 1e-9,
             ("ville_active", "graph_active"), exact=True),
    EndToEnd("live_speedup_vs_lockstep", "ratio", "higher", 0.20,
             ("live_threads",)),
    EndToEnd("ops_failed_share", "ratio", "lower", 0.0, ALL, exact=True),
)

#: The driver's contract wants every end-to-end metric from every
#: workload, never zero, steady across seeds: only these qualify, and
#: ``ops_failed_share`` is its ``failed / attempted``. The other four
#: are in the report alone; ``run.py --against`` gates them between two
#: commits.
DRIVER_END_TO_END = ("setup_s", "host_s_per_agent_day", "peak_rss_mb")


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: End-to-end metric this one should move ...
    moves: str
    #: ... and the workloads where it should (most first).
    where: tuple[str, ...]
    #: Counter or virtual-time value that must repeat exactly.
    exact: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]


def _rows(moves: str, where: tuple[str, ...], *specs: tuple) -> list[PerLayer]:
    return [PerLayer(name, unit, better, moves, where, *rest)
            for name, unit, better, *rest in specs]


HOST = "host_s_per_agent_day"
_CONTROLLER = ("ville_active", "graph_active")
_X = True  # exact

PER_LAYER: tuple[PerLayer, ...] = (
    # trace
    *_rows("setup_s", REPLAY,
           ("trace.generate_s", "s", "lower"),
           ("trace.assemble_s", "s", "lower")),
    *_rows("peak_rss_mb", ("shard_mp",),
           ("trace.store_mb", "MiB", "lower", _X)),
    *_rows(HOST, ("busy_kv", "ville_active"),
           ("trace.chain_bounds_calls", "count", "lower", _X),
           ("trace.chain_bounds_self_s", "s", "lower")),
    *_rows(HOST, ("shard_mp",),
           ("trace.share_positions_s", "s", "lower")),
    # world (+ scenarios)
    *_rows("setup_s", ("live_threads",),
           ("world.warmup_s", "s", "lower")),
    *_rows(HOST, ("live_threads",),
           ("world.execute_calls", "count", "lower"),
           ("world.execute_self_s", "s", "lower")),
    # devent
    *_rows(HOST, ("busy_kv", "ville_active", "graph_active"),
           ("devent.events", "count", "lower", _X),
           ("devent.events_per_agent_step", "ratio", "lower", _X),
           ("devent.loop_self_s", "s", "lower")),
    # metropolis
    *_rows(HOST, _CONTROLLER,
           ("metropolis.callback_self_s", "s", "lower"),
           ("metropolis.time_clustering_s", "s", "lower"),
           ("metropolis.time_graph_s", "s", "lower"),
           ("metropolis.time_dispatch_s", "s", "lower"),
           ("metropolis.controller_share", "ratio", "lower")),
    *_rows("sim_completion_s", _CONTROLLER,
           ("metropolis.controller_rounds", "count", "lower", _X),
           ("metropolis.clusters_dispatched", "count", "lower", _X),
           ("metropolis.mean_cluster_size", "count", "lower", _X),
           ("metropolis.max_step_spread", "count", "higher", _X),
           ("metropolis.kernel_events_per_cluster", "ratio", "lower", _X)),
    # dependency_graph
    *_rows(HOST, ("ville_active", "graph_active", "live_threads"),
           ("dependency_graph.commit_calls", "count", "lower"),
           ("dependency_graph.commit_self_s", "s", "lower"),
           ("dependency_graph.component_calls", "count", "lower"),
           ("dependency_graph.component_self_s", "s", "lower"),
           ("dependency_graph.mark_running_self_s", "s", "lower")),
    *_rows(HOST, _CONTROLLER,
           ("dependency_graph.scans", "count", "lower", _X),
           ("dependency_graph.scan_skips", "count", "higher", _X),
           ("dependency_graph.near_checks", "count", "lower", _X),
           ("dependency_graph.wake_skips", "count", "higher", _X),
           ("dependency_graph.scanned_slots", "count", "lower", _X),
           ("dependency_graph.fallback_scans", "count", "lower", _X),
           ("dependency_graph.component_hit_ratio", "ratio", "higher", _X)),
    *_rows("sim_frac_of_oracle", _CONTROLLER,
           ("dependency_graph.blocked_events", "count", "lower", _X),
           ("dependency_graph.unblock_events", "count", "lower", _X)),
    # space
    *_rows(HOST, ("graph_active",),
           ("space.within_calls", "count", "lower", _X),
           ("space.within_self_s", "s", "lower"),
           ("space.bucket_calls", "count", "lower", _X),
           ("space.bucket_self_s", "s", "lower")),
    # clustering
    *_rows(HOST, _CONTROLLER,
           ("clustering.query_calls", "count", "lower"),
           ("clustering.query_self_s", "s", "lower")),
    # tasks
    *_rows(HOST, ("busy_kv",),
           ("tasks.run_cluster_calls", "count", "lower", _X),
           ("tasks.run_cluster_self_s", "s", "lower"),
           ("tasks.callback_self_s", "s", "lower")),
    # serving
    *_rows(HOST, ("busy_kv",),
           ("serving.api_self_s", "s", "lower"),
           ("serving.callback_self_s", "s", "lower"),
           ("serving.kv_self_s", "s", "lower")),
    *_rows("sim_completion_s", ("busy_kv", "ville_active", "graph_active"),
           ("serving.requests", "count", "lower", _X),
           ("serving.prompt_tokens", "count", "lower", _X),
           ("serving.output_tokens", "count", "lower", _X),
           ("serving.tokens_per_sim_s", "tok/s", "higher", _X),
           ("serving.achieved_parallelism", "ratio", "higher", _X),
           ("serving.gpu_busy_fraction", "ratio", "higher", _X),
           ("serving.latency_p50_s", "s", "lower", _X),
           ("serving.latency_p99_s", "s", "lower", _X),
           ("serving.queue_time_p50_s", "s", "lower", _X)),
    *_rows("sim_completion_s", ("busy_kv",),
           ("serving.kv_hit_ratio", "ratio", "higher", _X),
           ("serving.kv_hit_tokens", "count", "higher", _X),
           ("serving.kv_evictions", "count", "lower", _X),
           ("serving.kv_forced_evictions", "count", "lower", _X),
           ("serving.kv_prefetch_pins", "count", "higher", _X)),
    # sharding
    *_rows(HOST, ("shard_mp",),
           ("sharding.plan_regions_s", "s", "lower"),
           ("sharding.shards", "count", "higher", _X),
           ("sharding.largest_shard_share", "ratio", "lower", _X)),
    # parallel
    *_rows(HOST, ("shard_mp",),
           ("parallel.workers", "count", "higher", _X),
           ("parallel.pool_wall_s", "s", "lower"),
           ("parallel.run_tasks_s", "s", "lower"),
           ("parallel.outside_pool_s", "s", "lower"),
           ("parallel.worker_controller_max_s", "s", "lower"),
           ("parallel.worker_controller_sum_s", "s", "lower"),
           ("parallel.imbalance", "ratio", "lower"),
           ("parallel.child_cpu_s", "s", "lower"),
           ("parallel.worker_redispatches", "count", "lower", _X)),
    # live (thread timing decides how acks coalesce: none is exact)
    *_rows("live_speedup_vs_lockstep", ("live_threads",),
           ("live.controller_rounds", "count", "lower"),
           ("live.clusters_executed", "count", "lower"),
           ("live.mean_cluster_size", "count", "lower"),
           ("live.max_step_spread", "count", "higher"),
           ("live.time_clustering_s", "s", "lower"),
           ("live.time_graph_s", "s", "lower"),
           ("live.time_dispatch_s", "s", "lower"),
           ("live.controller_share", "ratio", "lower"),
           ("live.llm_calls", "count", "lower", _X),
           ("live.slot_utilisation", "ratio", "higher")),
    # kvstore
    *_rows(HOST, ("live_threads",),
           ("kvstore.transactions", "count", "lower"),
           ("kvstore.transaction_self_s", "s", "lower"),
           ("kvstore.tx_retries", "count", "lower")),
    # faults: zero on these clean runs, nonzero is a failed operation
    *_rows("ops_failed_share", ("live_threads",),
           ("faults.retries", "count", "lower", _X),
           ("faults.redispatches", "count", "lower", _X),
           ("faults.degraded", "count", "lower", _X)),
    # bench: the measurement itself
    *_rows(HOST, ALL,
           ("bench.samples", "count", "higher"),
           ("bench.repeat_spread", "ratio", "lower"),
           ("bench.machine_speed", "ratio", "higher"),
           ("bench.raw_wall_s", "s", "lower"),
           ("bench.host_cpu_s", "s", "lower"),
           ("bench.trace_overhead_ratio", "ratio", "lower"),
           ("bench.unattributed_share", "ratio", "lower")),
)


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``, in the driver's schema."""
    by_name = {m.name: m for m in END_TO_END}
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in (by_name[name] for name in DRIVER_END_TO_END)],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
