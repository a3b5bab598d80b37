"""Multiprocess controller: one forked shard-worker process per task.

The region planner (:func:`~repro.core.sharding.plan_regions`) proves
its regions share **no** dependency edge — no coupling, no blocking, at
any reachable step gap — so the controller loop over one region never
reads or writes another region's state. This module runs the regions
in parallel worker processes:

* whole shards are assigned to workers
  (:func:`~repro.core.sharding.assign_shards` — the same deterministic
  LPT rule that balances regions into shards). A worker's task is its
  member slice: the sorted union of its shards' agents, renumbered
  ``0..m-1`` in that order, and nothing else about the plan. Every
  task references the trace's one step-major position store
  (:meth:`Trace.share_positions`); each run forks one process per task
  and hands it the task, so a forked worker reads the parent's store
  in place (a ``spawn`` worker gets it pickled) and gathers only its
  members' columns. The worker runs one controller loop over one
  :class:`~repro.core.dependency_graph.SpatioTemporalGraph` — blocker
  scans, clustering, commits, dispatch bookkeeping — against its own
  virtual-time kernel and serving engine;
* **no cross-worker synchronization exists mid-run.** Workers never
  write the position store and never message each other; each runs
  :func:`~repro.core.engine.replay_in_process` — the same wiring
  ``run_replay`` uses — and ships the resulting
  :class:`SimulationResult`, minus per-request records, back over the
  run's queue as its ledger, then exits. The parent folds the ledgers'
  ``DriverStats`` by each field's declared merge rule and aggregates
  the virtual clocks (completion = max over workers).

**Crash handling** reuses the faults-layer budget semantics: a worker
process that exits nonzero before its ledger arrives is forked again
with its task (the position store is read-only, so a retry from scratch
is idempotent), up to ``FaultPolicy.max_redispatches`` times; past the
budget the run raises a diagnostic :class:`SchedulingError` via
:func:`~repro.faults.scheduler_diagnostics`.

**Controller-time accounting.** Each worker runs its controller core on
``time.process_time``, so its ``controller_time`` measures the CPU
seconds of its own scheduling work regardless of how the OS timeshares
cores. The merged stats take the *maximum* over workers — the parallel
critical path, i.e. the wall-clock controller time on machines with a
dedicated core per worker — while per-worker times and the true
parent-side wall time ride along in ``extra`` for transparency.

**Equivalence.** Dependency-disjointness makes the mode state-identical
to the in-process single graph: same final positions, same per-agent
call sequences, and the same blocked edges, since no edge of the single
graph joins two workers' members. Virtual timing differs only where
the serving deployments do: each worker serves its members on a whole
deployment of its own. ``tests/test_parallel.py`` fuzz-pins the modes
against each other across seeded coordinate and graph worlds, and
``tests/test_golden_replay.py`` pins the worker cells' exact values.

The mode falls back loudly: when the workload yields fewer than two
regions, ``parallel_workers < 2``, the policy is not a metropolis
variant, a ``fault_hook`` is set, or the platform cannot start worker
processes, :func:`try_parallel_replay` logs one warning and returns the
reason, which ``run_replay`` records on its in-process result as
``driver_stats.extra["parallel_fallback"]``.
"""

from __future__ import annotations

import logging
import os
import resource
import signal
import time
import traceback
from dataclasses import fields, replace

import numpy as np

from ..config import FaultPolicy, SchedulerConfig, ServingConfig
from ..errors import SchedulingError
from ..faults import scheduler_diagnostics
from ..instrument import TimelineEvent, TimelineRecorder
from ..serving import EngineMetrics
from ..trace.schema import Trace
from .baselines import DriverStats
from .engine import SimulationResult, replay_in_process
from .rules import rules_for
from .sharding import assign_shards, plan_regions

_log = logging.getLogger(__name__)

#: Seconds between liveness sweeps while waiting on worker ledgers.
_POLL_S = 0.05


def merge_extra_counters(extras: list[dict]) -> dict:
    """The canonical ``DriverStats.extra`` aggregation.

    Numeric counters sum, so ``scanned_slots`` / ``kernel_events`` /
    ``scans`` count the whole population's work whether it ran
    in one process or many. Non-numeric values (per-run lists,
    diagnostics) do not aggregate and are dropped.
    """
    out: dict = {}
    for extra in extras:
        for key, value in extra.items():
            if isinstance(value, bool) or \
                    not isinstance(value, (int, float)):
                continue
            out[key] = out.get(key, 0) + value
    return out


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _run_worker_task(task: dict) -> SimulationResult:
    """Replay one worker's members in-process; return the compact ledger.

    :func:`~repro.core.engine.replay_in_process` over this worker's
    slice: positions are the member columns of the trace's store, one
    graph covers every member, and the controller clock is per-process
    CPU time (see module docstring). The ledger is the replay's own
    result, made compact (no per-request records) and global (timeline
    agent ids).
    """
    members: np.ndarray = task["members"]
    # One fancy-index gather, sized O(its members); the copy makes it
    # contiguous (the index alone is a strided array the replay would
    # copy again).
    positions = task["positions"][:, members, :].copy()
    trace = Trace(replace(task["meta"], n_agents=len(members)), positions,
                  *task["calls"])
    result = replay_in_process(
        trace, task["scheduler"], task["serving"],
        collect_timeline=task["collect_calls"], clock=time.process_time)
    result.engine_metrics.records = []
    if result.timeline is not None:
        gids = members.tolist()
        result.timeline.events = [
            TimelineEvent(gids[e.agent], e.step, e.func_id,
                          e.submit_time, e.finish_time)
            for e in result.timeline.events]
    return result


def _worker_main(task: dict, outbox) -> None:
    """One worker process: its task's ledger (or traceback) out, then exit."""
    # Forked (or spawned) while the parent blocked SIGINT: take it again.
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    if task.get("crash_times", 0) > 0:
        # Test hook: simulate a hard worker crash mid-task (the parent
        # decrements the counter before it forks the task again).
        os._exit(17)
    try:
        ledger = _run_worker_task(task)
        # This process's own high-water RSS, KiB on Linux: a forked
        # child's mark starts at its RSS at the fork (the pages it
        # shares with the parent), not at the parent's mark.
        ledger.driver_stats.extra["worker_peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outbox.put((task["task_id"], "ok", ledger))
    except BaseException:
        outbox.put((task["task_id"], "error", traceback.format_exc()))


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


def _mp_context():
    import multiprocessing as mp
    try:
        # Fork shares the imported interpreter state and the position
        # store, so worker startup is milliseconds; spawn is the
        # portable fallback.
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platform
        return mp.get_context("spawn")


class ShardWorkerPool:
    """One run's shard workers: a process per task, forked with it.

    :meth:`run_tasks` starts one process per task and passes the task
    as its argument; the ledgers come back on the run's one queue. A
    worker that exits nonzero before its ledger arrived (a crash, a
    signal, the OOM killer) is forked again with its task, against the
    faults-layer budget. Exit code 0 means the ledger is already in the
    queue's pipe: a process flushes its queue before it exits.
    """

    def __init__(self, faults: FaultPolicy | None = None) -> None:
        self.faults = faults or FaultPolicy()

    def run_tasks(self, tasks: dict[int, dict]) -> tuple[dict, int]:
        """Run ``tasks`` (worker id -> task) and collect their ledgers.

        Returns ``(task_id -> ledger, redispatches)``. Raises
        :class:`SchedulingError` when a worker reports an error or a
        task exhausts its crash-redispatch budget. Every process has
        ended, joined or terminated, when this returns or raises.
        """
        import queue as queue_mod
        ctx = _mp_context()
        outbox = ctx.Queue()
        procs: dict[int, object] = {}

        def start(wid: int) -> None:
            proc = ctx.Process(
                target=_worker_main, args=(tasks[wid], outbox),
                name=f"repro-shard-worker-{wid}", daemon=True)
            # CPython runs the at-fork hooks in the parent after the
            # fork and drops a KeyboardInterrupt raised there. Blocked,
            # a SIGINT waits until the process is recorded, then raises
            # here, and the ``finally`` below stops every worker.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                proc.start()
                # Kept only once forked: a process that never started
                # can be neither terminated nor joined below.
                procs[wid] = proc
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)

        results: dict[int, SimulationResult] = {}
        redispatches = 0
        try:
            for wid in tasks:
                start(wid)
            while len(results) < len(tasks):
                try:
                    task_id, status, payload = outbox.get(timeout=_POLL_S)
                except queue_mod.Empty:
                    for wid, proc in procs.items():
                        if wid not in results and proc.exitcode:
                            self._charge_crash(wid, tasks[wid])
                            start(wid)
                            redispatches += 1
                    continue
                if status == "error":
                    raise SchedulingError(
                        f"parallel worker {task_id} failed:\n{payload}")
                results[task_id] = payload
        finally:
            # All ledgers read: every worker is exiting. Otherwise stop
            # them, so none is left writing into a queue nobody reads.
            for proc in procs.values():
                if len(results) < len(tasks):
                    proc.terminate()
                proc.join()
            outbox.close()
        return results, redispatches

    def _charge_crash(self, wid: int, task: dict) -> None:
        """Count one crash of ``task`` against the redispatch budget."""
        attempts = task["redispatched"] = task.get("redispatched", 0) + 1
        if attempts > self.faults.max_redispatches:
            raise SchedulingError(
                "parallel worker crash budget exhausted "
                f"(worker {wid} died {attempts} times, budget "
                f"{self.faults.max_redispatches})\n  "
                + scheduler_diagnostics(
                    done=0, total=int(len(task["members"])),
                    redispatches=attempts - 1))
        if task.get("crash_times", 0) > 0:
            task["crash_times"] -= 1


def _build_tasks(trace: Trace, scheduler: SchedulerConfig,
                 serving: ServingConfig, shards: list[list[int]],
                 groups: list[list[int]], positions: np.ndarray,
                 collect_calls: bool,
                 crash_plan: dict[int, int] | None) -> dict[int, dict]:
    """One task per worker: the members of the shards LPT gave it."""
    # A worker runs one graph over its slice; re-planning or
    # re-parallelizing inside a worker is never right.
    worker_scheduler = replace(scheduler, shards=0, parallel_workers=0)
    call_agent = trace.call_agent
    tasks: dict[int, dict] = {}
    for wid, shard_idxs in enumerate(groups):
        # Sorted global ids: local id i is the i-th smallest member, so
        # searchsorted translates the call agents exactly.
        members = np.unique(np.concatenate(
            [np.asarray(shards[si], dtype=np.int64)
             for si in shard_idxs]))
        mask = np.isin(call_agent, members)
        tasks[wid] = {
            "task_id": wid,
            # Every task references the one store; each worker gathers
            # its own columns (gathered here, every forked worker would
            # inherit every task's copy).
            "positions": positions,
            "meta": trace.meta,
            "members": members,
            # The Trace call columns: step, agent (local id), func,
            # prompt tokens, output tokens.
            "calls": (trace.call_step[mask],
                      np.searchsorted(members, call_agent[mask]
                                      ).astype(call_agent.dtype),
                      trace.call_func[mask], trace.call_in[mask],
                      trace.call_out[mask]),
            "scheduler": worker_scheduler,
            "serving": serving,
            "collect_calls": collect_calls,
            "crash_times": (crash_plan or {}).get(wid, 0),
        }
    return tasks


#: ``DriverStats`` merge rules (``metadata["merge"]``) that are plain
#: folds over the workers' values; ``critical`` is handled apart.
_FOLDS = {"sum": sum, "max": max, "extra": merge_extra_counters}


def _merge_results(trace: Trace, scheduler: SchedulerConfig,
                   ledgers: list[SimulationResult], n_shards: int,
                   n_workers: int, redispatches: int,
                   wall_s: float) -> SimulationResult:
    """Fold the workers' ledgers into one :class:`SimulationResult`."""
    # Crash-consistency evidence: every member of every worker drained
    # to the final step before anything is merged.
    n_tasks = sum(led.n_tasks_completed for led in ledgers)
    if n_tasks != trace.meta.n_agents * trace.meta.n_steps:
        raise SchedulingError(
            "parallel replay: the worker ledgers report members not "
            f"drained to the final step ({n_tasks} agent-steps of "
            f"{trace.meta.n_agents * trace.meta.n_steps})")
    parts = [led.driver_stats for led in ledgers]
    # Headline controller times come from the critical-path worker: the
    # parallel run is as slow as its slowest worker, and per-worker CPU
    # time is what that worker would cost wall-clock on its own core.
    critical = max(parts, key=lambda part: part.controller_time)
    stats = DriverStats()
    for f in fields(DriverStats):
        rule = f.metadata.get("merge", "sum")
        setattr(stats, f.name, getattr(critical, f.name)
                if rule == "critical"
                else _FOLDS[rule]([getattr(part, f.name) for part in parts]))
    # Each worker ran one graph over its shards; the plan's count is
    # what the pool split the population into.
    stats.extra["shards"] = n_shards
    stats.extra["parallel_workers"] = n_workers
    stats.extra["worker_redispatches"] = redispatches
    stats.extra["parallel_wall_s"] = wall_s
    stats.extra["worker_controller_times"] = [
        part.controller_time for part in parts]
    if all("worker_peak_rss_mb" in part.extra for part in parts):
        # Per worker, like the CPU times: peaks of separate processes
        # do not add up (the ``extra`` fold above summed them).
        stats.extra["worker_peak_rss_mb"] = [
            part.extra["worker_peak_rss_mb"] for part in parts]
    completion = max(led.completion_time for led in ledgers)
    metrics = EngineMetrics()
    metrics.total_prompt_tokens = sum(
        led.engine_metrics.total_prompt_tokens for led in ledgers)
    metrics.total_output_tokens = sum(
        led.engine_metrics.total_output_tokens for led in ledgers)
    timeline = None
    if ledgers[0].timeline is not None:
        timeline = TimelineRecorder()
        timeline.events = sorted(
            (ev for led in ledgers for ev in led.timeline.events),
            key=lambda ev: (ev.submit_time, ev.finish_time, ev.agent,
                            ev.step))
    parallelism = sum(led.engine_metrics._outstanding_integral
                      for led in ledgers) / completion \
        if completion > 0 else 0.0
    busy = sum(led.gpu_busy_fraction * led.completion_time
               for led in ledgers) / (n_workers * completion) \
        if completion > 0 else 0.0
    return SimulationResult(
        policy=scheduler.policy,
        scenario=scheduler.scenario or trace.meta.scenario,
        completion_time=completion,
        achieved_parallelism=parallelism,
        n_calls_completed=sum(led.n_calls_completed for led in ledgers),
        n_tasks_completed=stats.tasks_completed,
        driver_stats=stats,
        engine_metrics=metrics,
        gpu_busy_fraction=busy,
        timeline=timeline,
        kv_stats=merge_extra_counters([led.kv_stats for led in ledgers]),
    )


def _fallback(reason: str) -> str:
    _log.warning("multiprocess replay falls back in-process: %s", reason)
    return reason


def try_parallel_replay(trace: Trace, scheduler: SchedulerConfig,
                        serving: ServingConfig,
                        collect_timeline: bool = False,
                        pool: ShardWorkerPool | None = None, fault_hook=None,
                        _crash_plan: dict[int, int] | None = None
                        ) -> SimulationResult | str:
    """The multiprocess replay, or the (logged) reason it cannot run.

    ``pool`` stands in for the run's :class:`ShardWorkerPool` (tests
    run the tasks in-process through it); ``_crash_plan`` (worker id ->
    crash count) is the test hook exercising the redispatch path.
    """
    if fault_hook is not None:
        return _fallback("a fault_hook closure cannot cross processes")
    if scheduler.parallel_workers < 2:
        return _fallback("fewer than two parallel_workers requested")
    if scheduler.policy != "metropolis":
        return _fallback(
            f"policy {scheduler.policy!r} has no shard-worker controller")
    if scheduler.interactive_agents:
        return _fallback("interactive agent ids are global and their "
                         "latency ledger is cross-region")
    rules = rules_for(scheduler, trace.meta)
    max_shards = scheduler.shards if scheduler.shards >= 2 \
        else max(2, scheduler.parallel_workers)
    shards = plan_regions(trace, rules, max_shards)
    if shards is None:
        return _fallback("fewer than two independent regions in the workload")
    n_workers = min(scheduler.parallel_workers, len(shards))
    groups = assign_shards([len(m) for m in shards], n_workers)
    positions = trace.share_positions()
    wall0 = time.perf_counter()
    tasks = _build_tasks(trace, scheduler, serving, shards, groups,
                         positions, collect_timeline, _crash_plan)
    pool = pool or ShardWorkerPool(scheduler.faults)
    try:
        results, redispatches = pool.run_tasks(tasks)
    except (ImportError, OSError) as exc:
        return _fallback(f"cannot start worker processes ({exc!r})")
    wall_s = time.perf_counter() - wall0
    ledgers = [results[tid] for tid in sorted(results)]
    return _merge_results(trace, scheduler, ledgers, len(shards),
                          n_workers, redispatches, wall_s)
