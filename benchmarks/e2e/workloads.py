"""The five workloads: inputs from a seed, one run, and its output checks.

Everything goes through ``repro``'s public API. Sizes are fixed (never
scaled to ``nproc``) and chosen so that one driver run — three cold
set-ups, a warm-up, ten seconds of timed repeats, the reference runs,
the checks and the traced run — stays under 30 s on the 2-core sandbox;
the README records where they differ from the sizes the issue named.
"""

from __future__ import annotations

import copy
import resource
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro import SchedulerConfig, ServingConfig, run_replay
from repro.bench.runner import serving_for
from repro.config import STEPS_PER_HOUR, DependencyConfig
from repro.core import plan_regions, rules_for
from repro.live import LiveSimulation, ThrottledLLMClient
from repro.live.environment import BehaviorProgram
from repro.scenarios import get_scenario
from repro.trace import Trace, cached_day_trace
from repro.trace.schema import concat_traces


class CheckFailed(Exception):
    """An output check did not hold."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def world_seed(seed: int, world: int) -> int:
    """First world seed of one of a run's worlds.

    A world draws up to 100 consecutive seeds, one per simulated
    segment; runs with different ``--seed``, and the worlds of one run,
    share none.
    """
    return seed * 1000 + world * 100


#: One operation of a workload: a label and the callable that performs
#: it. The session counts each as attempted and, if it raises, failed.
Operation = tuple[str, Callable[[], Any]]


@dataclass
class Run:
    """One run: its public result objects and what the call cost the host."""

    result: Any
    #: Counters and virtual-time values: identical on every repeat.
    exact: dict[str, float]
    #: Host-time and thread-timing dependent numbers of the result objects.
    noisy: dict[str, float]
    wall_s: float = 0.0
    cpu_s: float = 0.0
    child_cpu_s: float = 0.0
    extras: dict[str, Any] = field(default_factory=dict)


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _measured(run: Callable[[], Any]) -> tuple[Any, dict[str, float]]:
    """``run()`` and the host cost of that call alone.

    Children's CPU shows up once they are reaped, which the worker pool
    does before ``run_replay`` returns.
    """
    children0, cpu0 = _children_cpu(), time.process_time()
    t0 = time.perf_counter()
    result = run()
    wall = time.perf_counter() - t0
    return result, {"wall_s": wall, "cpu_s": time.process_time() - cpu0,
                    "child_cpu_s": _children_cpu() - children0}


# ---------------------------------------------------------------------------
# replay workloads
# ---------------------------------------------------------------------------


#: ``validate_causality`` re-derives every blocker at every commit; a
#: whole busy hour of it would outlast the timed repeats.
CAUSALITY_STEPS = 120


@dataclass
class ReplayInputs:
    trace: Trace
    #: The first two segments alone, at most their first
    #: ``CAUSALITY_STEPS`` steps, for the causality-validated replay.
    head: Trace
    scheduler: SchedulerConfig
    serving: ServingConfig
    phases: dict[str, float]

    @property
    def agent_steps(self) -> int:
        return self.trace.meta.n_agents * self.trace.meta.n_steps


@dataclass(frozen=True)
class Replay:
    """A trace-replay workload (offline batch, virtual-time serving)."""

    name: str
    scenario: str
    #: Independently seeded day segments simulated at set-up.
    segments: int
    #: Which steps are replayed: the scenario's ``active`` window or its
    #: ``busy_hour``; ``steps`` keeps only the window's last steps.
    window: str = "active"
    steps: int | None = None
    #: Segments in the replayed trace, tiled from the simulated pool
    #: (0 = one per simulated segment).
    tiles: int = 0
    gpus: int = 8
    fidelity: str = "fluid"
    #: KV retention under the scenario profile's pressure fraction.
    kv_pressure: bool = False
    shards: int = 0
    workers: int = 0
    #: Reference policies replayed once on the same trace and deployment.
    references: tuple[str, ...] = ()
    #: Independently seeded inputs a run's repeats rotate over. One: a
    #: trace of 8 or more independently seeded segments is its own
    #: average, and host time follows the machine far more than the seed.
    worlds = 1
    #: CPU-bound from start to end (``shard_mp`` on two cores at once):
    #: the wall follows the machine's speed, so it is reported at
    #: reference speed. 40 repeats of one input spread by 0.26-0.32 as
    #: measured and by 0.18-0.21 so, on each of the four replay workloads.
    cpu_bound = True

    @property
    def in_process(self) -> bool:
        return not self.workers

    def _window(self, scn) -> tuple[int, int]:
        if self.window == "busy_hour":
            start = scn.busy_hour * STEPS_PER_HOUR
            end = start + STEPS_PER_HOUR
        else:
            start, end = scn.active_window
        if self.steps is not None:
            start = end - self.steps
        return start, end

    def build(self, seed: int, world: int = 0) -> ReplayInputs:
        scn = get_scenario(self.scenario)
        start, end = self._window(scn)
        base = world_seed(seed, world)
        t0 = time.perf_counter()
        days = [cached_day_trace(base + k, scn.agents_per_segment, end, scn)
                for k in range(self.segments)]
        t1 = time.perf_counter()
        pool = [day.window(start, end) for day in days]
        width = scn.world()[0].width
        dep = scn.dependency_config or DependencyConfig()
        if self.shards and dep.metric != "graph":
            # generate_scale_trace's widened gutter: segments sit beyond
            # the worst-case blocking threshold of the whole window, so
            # plan_regions can prove them independent.
            margin = dep.radius_p + (end - start + 1) * dep.max_vel
            stride = width + 1 + 2 * int(margin + 1)
        else:
            stride = width + 1
        tiles = self.tiles or self.segments
        trace = concat_traces([pool[k % len(pool)] for k in range(tiles)],
                              x_stride=stride)
        head = concat_traces(pool[:2], x_stride=stride).window(
            0, min(end - start, CAUSALITY_STEPS))
        t2 = time.perf_counter()
        serving = serving_for("l4-8b", self.gpus, self.fidelity)
        if self.kv_pressure:
            serving = replace(
                serving, kv_policy="distance",
                kv_memory_fraction=scn.serving_profile.kv_pressure_fraction)
        scheduler = SchedulerConfig(
            policy="metropolis", scenario=scn.name, shards=self.shards,
            parallel_workers=self.workers)
        return ReplayInputs(trace, head, scheduler, serving, {
            "trace.generate_s": t1 - t0, "trace.assemble_s": t2 - t1})

    def run(self, inputs: ReplayInputs, timeline: bool = False) -> Run:
        result, cost = _measured(lambda: run_replay(
            inputs.trace, inputs.scheduler, inputs.serving,
            collect_timeline=timeline))
        return Run(result, *_replay_numbers(result, inputs, cost["wall_s"]),
                   **cost)

    def run_checks(self, inputs: ReplayInputs, run: Run) -> list[Operation]:
        """Checks made on every run, timed or not."""
        result, trace = run.result, inputs.trace

        def drained() -> None:
            expect(result.n_tasks_completed == inputs.agent_steps,
                   f"tasks {result.n_tasks_completed} != agents x steps "
                   f"{inputs.agent_steps}")
            expect(result.n_calls_completed == trace.n_calls,
                   f"calls {result.n_calls_completed} != {trace.n_calls}")
            expect(run.exact["dependency_graph.fallback_scans"] == 0,
                   "dependency graph fell back to linear scans")

        checks: list[Operation] = [("drained", drained)]
        if self.workers:
            def multiprocess() -> None:
                extra = result.driver_stats.extra
                expect(extra.get("parallel_workers") == self.workers,
                       f"ran with {extra.get('parallel_workers')} worker "
                       f"processes, wanted {self.workers}: silent fallback")
                expect(extra.get("shards", 0) >= 2,
                       f"only {extra.get('shards')} shard(s)")
                expect(extra.get("worker_redispatches") == 0,
                       "a worker process died and was redispatched")
            checks.append(("multiprocess", multiprocess))
        return checks

    def references_and_checks(self, inputs: ReplayInputs, run: Run,
                              out: dict[str, float]) -> list[Operation]:
        """Reference runs and whole-workload checks; fills ``out``."""
        policy_s = run.result.completion_time
        ops: list[Operation] = []

        def reference(policy: str, metric: str) -> Callable[[], None]:
            def op() -> None:
                ref = run_replay(inputs.trace,
                                 inputs.scheduler.with_policy(policy),
                                 inputs.serving)
                out[metric] = ref.completion_time / policy_s
                if policy == "parallel-sync":
                    expect(policy_s < ref.completion_time,
                           f"metropolis {policy_s} s not faster than "
                           f"parallel-sync {ref.completion_time} s")
            return op

        if "parallel-sync" in self.references:
            ops.append(("reference parallel-sync",
                        reference("parallel-sync", "sim_speedup_vs_sync")))
        if "oracle" in self.references:
            ops.append(("reference oracle",
                        reference("oracle", "sim_frac_of_oracle")))

        def causality() -> None:
            # In-process whatever the workload: validate() walks the
            # single graph, and two segments cannot be sharded anyway.
            checked = replace(inputs.scheduler, validate_causality=True,
                              shards=0, parallel_workers=0)
            result = run_replay(inputs.head, checked, inputs.serving)
            expect(result.n_calls_completed == inputs.head.n_calls,
                   "causality replay lost calls")

        ops.append(("causality-validated replay of two segments", causality))
        if self.shards:
            def plan() -> None:
                regions = plan_regions(
                    inputs.trace, rules_for(inputs.scheduler,
                                            inputs.trace.meta), self.shards)
                expect(regions is not None and len(regions) >= 2,
                       "plan_regions could not split the workload")
                out["sharding.largest_shard_share"] = \
                    max(len(r) for r in regions) / inputs.trace.meta.n_agents
            ops.append(("shard plan", plan))
        return ops

    def traced_checks(self, inputs: ReplayInputs, run: Run) -> list[Operation]:
        def timeline_order() -> None:
            check_timeline(inputs.trace, run.result.timeline)
        return [("timeline in (step, chain) order", timeline_order)]


def _replay_numbers(result, inputs: ReplayInputs, wall_s: float
                    ) -> tuple[dict[str, float], dict[str, float]]:
    """(exact, noisy) numbers read off a ``SimulationResult``."""
    stats = result.driver_stats
    extra = stats.extra
    metrics = result.engine_metrics
    kv = result.kv_stats
    completion = result.completion_time
    clusters = max(stats.clusters_dispatched, 1)
    lookups = extra["cluster_cache_hits"] + extra["cluster_cache_misses"]
    tokens = metrics.total_prompt_tokens + metrics.total_output_tokens
    exact = {
        "sim_completion_s": completion,
        "trace.store_mb": inputs.trace.positions_by_step.nbytes / 2**20,
        "metropolis.controller_rounds": stats.controller_rounds,
        "metropolis.clusters_dispatched": stats.clusters_dispatched,
        "metropolis.mean_cluster_size": stats.mean_cluster_size,
        "metropolis.max_step_spread": stats.max_step_spread,
        "metropolis.kernel_events_per_cluster":
            extra["kernel_events"] / clusters,
        "dependency_graph.scans": extra["graph_scans"],
        "dependency_graph.scan_skips": extra["graph_scan_skips"],
        "dependency_graph.near_checks": extra["graph_near_checks"],
        "dependency_graph.wake_skips": extra["graph_wake_skips"],
        "dependency_graph.scanned_slots": extra["graph_scanned_slots"],
        "dependency_graph.fallback_scans": extra["graph_fallback_scans"],
        "dependency_graph.component_hit_ratio":
            extra["cluster_cache_hits"] / max(lookups, 1),
        "dependency_graph.blocked_events": stats.blocked_events,
        "dependency_graph.unblock_events": stats.unblock_events,
        "serving.requests": result.n_calls_completed,
        "serving.prompt_tokens": metrics.total_prompt_tokens,
        "serving.output_tokens": metrics.total_output_tokens,
        "serving.tokens_per_sim_s": tokens / completion,
        "serving.achieved_parallelism": result.achieved_parallelism,
        "serving.gpu_busy_fraction": result.gpu_busy_fraction,
        "sharding.shards": extra["shards"],
    }
    if metrics.records:  # the multiprocess merge carries totals only
        latencies = [r.latency for r in metrics.records]
        exact["serving.latency_p50_s"] = _percentile(latencies, 50)
        exact["serving.latency_p99_s"] = _percentile(latencies, 99)
        exact["serving.queue_time_p50_s"] = _percentile(
            [r.queue_time for r in metrics.records], 50)
    if kv.get("hits", 0) + kv.get("misses", 0):
        exact.update({
            "serving.kv_hit_ratio": kv["hits"] / (kv["hits"] + kv["misses"]),
            "serving.kv_hit_tokens": kv["hit_tokens"],
            "serving.kv_evictions": kv["evictions"],
            "serving.kv_forced_evictions": kv["forced_evictions"],
            "serving.kv_prefetch_pins": kv["prefetch_pins"],
        })
    noisy = {
        "metropolis.time_clustering_s": stats.time_clustering,
        "metropolis.time_graph_s": stats.time_graph,
        "metropolis.time_dispatch_s": stats.time_dispatch,
        "metropolis.controller_share": stats.controller_time / wall_s,
    }
    if "parallel_workers" in extra:
        workers = extra["worker_controller_times"]
        exact["parallel.workers"] = extra["parallel_workers"]
        exact["parallel.worker_redispatches"] = extra["worker_redispatches"]
        noisy.update({
            "parallel.pool_wall_s": extra["parallel_wall_s"],
            # Plan, shared-memory copy and ledger merge.
            "parallel.outside_pool_s": wall_s - extra["parallel_wall_s"],
            "parallel.worker_controller_max_s": max(workers),
            "parallel.worker_controller_sum_s": sum(workers),
            "parallel.imbalance": max(workers) * len(workers) / sum(workers),
        })
    return exact, noisy


def check_timeline(trace: Trace, timeline) -> None:
    """Each agent's calls finished in the trace's (step, chain) order."""
    events = timeline.events
    expect(len(events) == trace.n_calls,
           f"timeline has {len(events)} calls, trace {trace.n_calls}")
    agent = np.fromiter((e.agent for e in events), np.int64, len(events))
    step = np.fromiter((e.step for e in events), np.int64, len(events))
    func = np.fromiter((e.func_id for e in events), np.int64, len(events))
    finish = np.fromiter((e.finish_time for e in events), float, len(events))
    # Group by agent, keeping the order in which calls finished; the
    # trace stores calls sorted by (agent, step, chain position).
    order = np.lexsort((np.arange(len(events)), agent))
    expect(np.array_equal(agent[order], trace.call_agent)
           and np.array_equal(step[order], trace.call_step)
           and np.array_equal(func[order], trace.call_func),
           "an agent's calls finished out of (step, chain) order")
    same_agent = np.diff(agent[order]) == 0
    expect(bool(np.all(np.diff(finish[order])[same_agent] >= 0)),
           "an agent's call finished before its predecessor")


# ---------------------------------------------------------------------------
# live workload
# ---------------------------------------------------------------------------


@dataclass
class LiveInputs:
    #: World model warmed lock-step to the window's first step; every
    #: run steps its own deep copy.
    model: Any
    start: int
    end: int
    phases: dict[str, float]

    @property
    def agent_steps(self) -> int:
        return len(self.model.agents) * (self.end - self.start)


def _world_state(model) -> list[tuple]:
    return [(a.pos, a.awake, a.activity, len(a.memory))
            for a in model.agents]


@dataclass(frozen=True)
class Live:
    """Closed loop: 2 worker threads, each waits for its LLM reply."""

    name: str
    scenario: str
    agents: int
    steps: int | None = None
    workers: int = 2
    slots: int = 2
    #: Independently seeded villes a run's repeats rotate over. One
    #: 100-agent ville per seed is a noisy input: LLM calls in the window
    #: spread (q3 - q1 over the median of 12 seeds) by 0.27, the wall
    #: follows them, and ten seeds' host time spread by 0.275, more than
    #: the 0.25 the driver allows. Three average that out; building one
    #: takes half a second.
    worlds: int = 3
    in_process = True
    #: Most of the wall is the throttled client sleeping, which the
    #: machine's speed does not stretch: 40 repeats of one input spread
    #: by 0.13 as measured and by 0.22 at reference speed.
    cpu_bound = False

    def build(self, seed: int, world: int = 0) -> LiveInputs:
        scn = get_scenario(self.scenario)
        start, end = scn.active_window
        if self.steps is not None:
            start = end - self.steps
        t0 = time.perf_counter()
        model = scn.model(self.agents, world_seed(seed, world))
        t1 = time.perf_counter()
        for step in range(start):
            model.step_all(step)
        t2 = time.perf_counter()
        return LiveInputs(model, start, end, {
            "world.build_s": t1 - t0, "world.warmup_s": t2 - t1})

    def run(self, inputs: LiveInputs, timeline: bool = False,
            policy: str = "metropolis") -> Run:
        model = copy.deepcopy(inputs.model)
        client = ThrottledLLMClient(base_latency=0.002, per_token=0.00002,
                                    slots=self.slots)
        sim = LiveSimulation(
            BehaviorProgram(model), client,
            scheduler=SchedulerConfig(policy=policy, scenario=self.scenario),
            num_workers=self.workers)
        result, cost = _measured(lambda: sim.run(
            target_step=inputs.end, start_step=inputs.start))
        faults = result.faults
        exact = {
            "live.llm_calls": client.calls,
            "faults.retries": faults.llm_retries + faults.tx_retries,
            "faults.redispatches":
                faults.redispatches + faults.aborted_clusters,
            "faults.degraded": faults.degraded_completions,
        }
        noisy = {
            "live.controller_rounds": result.controller_rounds,
            "live.clusters_executed": result.clusters_executed,
            "live.mean_cluster_size": result.mean_cluster_size,
            "live.max_step_spread": result.max_step_spread,
            "live.time_clustering_s": result.time_clustering,
            "live.time_graph_s": result.time_graph,
            "live.time_dispatch_s": result.time_dispatch,
            "live.controller_share":
                result.controller_time / result.wall_time,
            "live.slot_utilisation":
                client.busy_time / (self.slots * result.wall_time),
            "kvstore.transactions": sim.store.get("commits", 0),
            "kvstore.tx_retries": sim.store.tx_retries,
        }
        return Run(result, exact, noisy, **cost,
                   extras={"state": _world_state(model)})

    def run_checks(self, inputs: LiveInputs, run: Run) -> list[Operation]:
        def clean() -> None:
            faults = run.result.faults
            expect(not faults.any_faults,
                   f"fault paths fired on a clean run: {faults.as_dict()}")
            expect(len(run.result.final_positions) == self.agents,
                   "final positions missing agents")
        return [("no faults", clean)]

    def references_and_checks(self, inputs: LiveInputs, run: Run,
                              out: dict[str, float]) -> list[Operation]:
        def lockstep_world() -> None:
            ref = copy.deepcopy(inputs.model)
            for step in range(inputs.start, inputs.end):
                ref.step_all(step)
            expect(run.extras["state"] == _world_state(ref),
                   "out-of-order final world state differs from lock-step")

        def lockstep_live() -> None:
            sync = self.run(inputs, policy="parallel-sync")
            expect(sync.extras["state"] == run.extras["state"],
                   "live parallel-sync final state differs from OOO")
            out["lockstep_wall_s"] = sync.wall_s

        return [("final state equals lock-step reference", lockstep_world),
                ("reference live parallel-sync", lockstep_live)]

    def traced_checks(self, inputs: LiveInputs, run: Run) -> list[Operation]:
        return []


# ---------------------------------------------------------------------------
# sizes
# ---------------------------------------------------------------------------

_SYNC_ORACLE = ("parallel-sync", "oracle")

FULL = {w.name: w for w in (
    Replay("ville_active", "smallville", segments=16,
           references=_SYNC_ORACLE),
    Replay("graph_active", "social-graph", segments=8,
           references=_SYNC_ORACLE),
    Replay("busy_kv", "smallville", segments=2, window="busy_hour",
           gpus=1, fidelity="iteration", kv_pressure=True,
           references=("parallel-sync",)),
    Replay("shard_mp", "smallville", segments=8, steps=60, tiles=60,
           shards=6, workers=2),
    Live("live_threads", "smallville", agents=100),
)}

#: All five through every check in about ten seconds.
SMOKE = {w.name: w for w in (
    replace(FULL["ville_active"], segments=2, steps=24),
    replace(FULL["graph_active"], segments=2, steps=24),
    replace(FULL["busy_kv"], segments=1, window="active", steps=40),
    replace(FULL["shard_mp"], segments=2, steps=20, tiles=6),
    replace(FULL["live_threads"], agents=25, steps=12, worlds=1),
)}

SIZES = {"full": FULL, "smoke": SMOKE}
