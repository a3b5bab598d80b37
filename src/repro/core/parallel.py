"""Multiprocess controller: shard-worker processes over a shared store.

The region planner (:func:`~repro.core.sharding.plan_regions`) proves
its regions share **no** dependency edge — no coupling, no blocking, at
any reachable step gap — so the controller loop over one region never
reads or writes another region's state. This module runs the regions
in parallel worker processes:

* the parent publishes the trace's step-major position store as one
  named shared-memory segment (:meth:`Trace.share_positions`); workers
  attach **zero-copy** by name and gather only their members' columns;
* whole shards are assigned to a pool of persistent worker processes
  (:func:`~repro.core.sharding.assign_shards` — the same deterministic
  LPT rule that balances regions into shards). A worker's task is its
  member slice: the sorted union of its shards' agents, renumbered
  ``0..m-1`` in that order, and nothing else about the plan. The worker
  runs one controller loop over one
  :class:`~repro.core.dependency_graph.SpatioTemporalGraph` — blocker
  scans, clustering, commits, dispatch bookkeeping — against its own
  virtual-time kernel and serving engine;
* **no cross-worker synchronization exists mid-run.** Workers never
  write the shared segment and never message each other; each runs
  :func:`~repro.core.engine.replay_in_process` — the same wiring
  ``run_replay`` uses — and ships the resulting
  :class:`SimulationResult`, minus per-request records, back over a
  queue as its ledger. The parent folds the ledgers' ``DriverStats`` by
  each field's declared merge rule and aggregates the virtual clocks
  (completion = max over workers).

**Crash handling** reuses the faults-layer budget semantics: a worker
process that dies mid-task is replaced and its task redispatched (the
shared store is read-only, so a retry from scratch is idempotent), up
to ``FaultPolicy.max_redispatches`` times; past the budget the run
raises a diagnostic :class:`SchedulingError` via
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
variant, a ``fault_hook`` is set, or the platform lacks POSIX shared
memory, :func:`try_parallel_replay` logs one warning and returns the
reason, which ``run_replay`` records on its in-process result as
``driver_stats.extra["parallel_fallback"]``.
"""

from __future__ import annotations

import logging
import os
import time
import traceback
from dataclasses import fields, replace

import numpy as np

from ..config import FaultPolicy, SchedulerConfig, ServingConfig
from ..errors import SchedulingError
from ..faults import scheduler_diagnostics
from ..instrument import TimelineEvent, TimelineRecorder
from ..serving import EngineMetrics
from ..trace.schema import SharedPositionStore, Trace
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
    slice: positions come from the shared segment (gathered down to the
    member columns), one graph covers every member, and the controller
    clock is per-process CPU time (see module docstring). The ledger is
    the replay's own result, made compact (no per-request records) and
    global (timeline agent ids).
    """
    members: np.ndarray = task["members"]
    store = SharedPositionStore.open(
        task["shm_name"], task["shm_shape"], task["shm_dtype"])
    try:
        # One fancy-index gather: the worker's whole working set, sized
        # O(its members), leaving the shared segment untouched.
        positions = store.array[:, members, :].copy()
    finally:
        store.close()
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


def _worker_main(worker_id: int, inbox, outbox) -> None:
    """Persistent worker loop: tasks in, ledgers out, ``None`` to quit."""
    while True:
        task = inbox.get()
        if task is None:
            return
        if task.get("crash_times", 0) > 0:
            # Test hook: simulate a hard worker crash mid-task (the
            # parent decrements the counter before redispatching).
            os._exit(17)
        try:
            outbox.put((worker_id, task["run"], task["task_id"], "ok",
                        _run_worker_task(task)))
        except BaseException:
            outbox.put((worker_id, task["run"], task["task_id"], "error",
                        traceback.format_exc()))


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


def _mp_context():
    import multiprocessing as mp
    try:
        # Fork shares the imported interpreter state, so worker startup
        # is milliseconds; spawn is the portable fallback.
        ctx = mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platform
        return mp.get_context("spawn")
    # Forked workers inherit the parent's resource tracker only if it
    # runs before the fork. Otherwise each starts its own on its first
    # attach, which registers the segment there (and before 3.12
    # nothing unregisters it), so when the worker exits that tracker
    # "cleans up" the parent's unlinked segments, warning per segment.
    from multiprocessing import resource_tracker
    resource_tracker.ensure_running()
    return ctx


class ShardWorkerPool:
    """A pool of persistent shard-worker processes.

    Reusable across runs (the equivalence fuzz shares one pool over a
    hundred worlds); each worker owns a private inbox so tasks pin to
    the worker whose shard slice they describe, and all workers share
    one outbox. A dead worker is detected by liveness polling, replaced
    with a fresh process *and a fresh inbox* (so a task that died
    before or after ``get()`` is re-run exactly once), and its task
    redispatched against the faults-layer budget.
    """

    def __init__(self, n_workers: int,
                 faults: FaultPolicy | None = None) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.faults = faults or FaultPolicy()
        self._ctx = _mp_context()
        self._outbox = self._ctx.Queue()
        #: Runs started so far; tags each run's tasks and ledgers.
        self._runs = 0
        self._procs: list = [None] * n_workers
        self._inboxes: list = [None] * n_workers
        for wid in range(n_workers):
            self._respawn(wid)

    def _respawn(self, worker_id: int) -> None:
        old = self._procs[worker_id]
        if old is not None and old.is_alive():  # pragma: no cover
            old.terminate()
            old.join(1.0)
        inbox = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, inbox, self._outbox),
            name=f"repro-shard-worker-{worker_id}", daemon=True)
        proc.start()
        self._procs[worker_id] = proc
        self._inboxes[worker_id] = inbox

    def run_tasks(self, tasks: dict[int, dict]) -> tuple[dict, int]:
        """Dispatch ``tasks`` (worker id -> task) and collect ledgers.

        Returns ``(task_id -> ledger, redispatches)``. Raises
        :class:`SchedulingError` when a worker reports an error or a
        task exhausts its crash-redispatch budget. Task ids restart at
        0 every run, so each run's tasks carry the pool's run number
        and messages of an earlier run — the ledgers its other workers
        still sent after it raised — are dropped.
        """
        import queue as queue_mod
        self._runs += 1
        outstanding = dict(tasks)
        for wid, task in outstanding.items():
            task["run"] = self._runs
            self._inboxes[wid].put(task)
        results: dict[int, dict] = {}
        redispatches = 0
        while outstanding:
            try:
                wid, run, task_id, status, payload = self._outbox.get(
                    timeout=_POLL_S)
            except queue_mod.Empty:
                redispatches += self._redispatch_dead(outstanding)
                continue
            if run != self._runs:
                continue
            if status == "error":
                raise SchedulingError(
                    f"parallel worker {wid} failed:\n{payload}")
            results[task_id] = payload
            outstanding.pop(wid, None)
        return results, redispatches

    def _redispatch_dead(self, outstanding: dict[int, dict]) -> int:
        """Replace dead workers; re-run their tasks. Returns the count."""
        redispatched = 0
        for wid in list(outstanding):
            proc = self._procs[wid]
            if proc.is_alive():
                continue
            task = outstanding[wid]
            attempts = task["redispatched"] = \
                task.get("redispatched", 0) + 1
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
            self._respawn(wid)
            self._inboxes[wid].put(task)
            redispatched += 1
        return redispatched

    def close(self) -> None:
        """Drain the pool: polite sentinel, then terminate stragglers.

        A second interrupt landing in the drain still terminates every
        worker before it propagates: a worker left running could attach
        the position segment after its owner unlinked it, which the
        resource tracker reports as a leak at exit. Nor is an inbox's
        feeder thread joined at exit: an interrupted ``put`` can leave
        it waiting for a wake-up that never comes.
        """
        procs = [p for p in self._procs if p is not None]
        try:
            for wid, proc in enumerate(self._procs):
                if proc is None:
                    continue
                try:
                    self._inboxes[wid].put(None)
                except Exception:  # pragma: no cover - queue torn down
                    pass
            deadline = time.monotonic() + self.faults.worker_join_grace
            for proc in procs:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(1.0)
            self._outbox.close()
            for inbox in self._inboxes:
                if inbox is not None:
                    inbox.cancel_join_thread()
                    inbox.close()

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _build_tasks(trace: Trace, scheduler: SchedulerConfig,
                 serving: ServingConfig, shards: list[list[int]],
                 groups: list[list[int]], store: SharedPositionStore,
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
            "shm_name": store.name,
            "shm_shape": store.shape,
            "shm_dtype": store.dtype.str,
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

    ``pool`` reuses persistent workers across runs; ``_crash_plan``
    (worker id -> crash count) is the test hook exercising the
    redispatch path.
    """
    if fault_hook is not None:
        return _fallback("a fault_hook closure cannot cross processes")
    if scheduler.parallel_workers < 2 and pool is None:
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
    want = scheduler.parallel_workers \
        if scheduler.parallel_workers >= 2 else pool.n_workers
    if pool is not None:
        want = min(want, pool.n_workers)
    n_workers = min(want, len(shards))
    if n_workers < 2:
        return _fallback(f"only {n_workers} worker process usable")
    groups = assign_shards([len(m) for m in shards], n_workers)
    try:
        store = trace.share_positions()
    except (ImportError, OSError) as exc:
        return _fallback(f"no POSIX shared memory ({exc!r})")
    wall0 = time.perf_counter()
    own_pool = pool is None
    try:
        tasks = _build_tasks(trace, scheduler, serving, shards, groups,
                             store, collect_timeline, _crash_plan)
        if own_pool:
            pool = ShardWorkerPool(n_workers, faults=scheduler.faults)
        try:
            results, redispatches = pool.run_tasks(tasks)
        finally:
            if own_pool:
                pool.close()
    finally:
        store.unlink()
        store.close()
    wall_s = time.perf_counter() - wall0
    ledgers = [results[tid] for tid in sorted(results)]
    return _merge_results(trace, scheduler, ledgers, len(shards),
                          n_workers, redispatches, wall_s)
