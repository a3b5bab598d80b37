"""The live, multi-threaded Algorithm 3.

Faithful to the paper's architecture at thread granularity:

* the **controller** (caller's thread) is the same
  :class:`~repro.core.controller.ControllerCore` the replay driver
  runs — it owns the spatiotemporal dependency graph and geo-clusters
  ready agents — and this module is its *thread transport*: it feeds
  the core's dispatchable clusters into a priority ``ready_queue``
  (ordered by step, §3.5);
* **workers** (a thread pool) pull clusters, run the world program's
  ``execute`` for the members — which issues blocking LLM calls — read
  the members' positions once in bulk, commit the new state to the KV
  store in one optimistic transaction (§3.6 keeps this state in Redis)
  and acknowledge — positions included — through the ``ack_queue``;
* the controller drains every pending ack and makes one ``core.step``
  per batch, exactly like the virtual-time driver: it commits the
  finished clusters (the ack payload carries the positions, so the
  controller never re-derives ``program.position()``; a member whose
  payload position equals its current one did not move), rolls the
  failed ones back, and submits whatever the step claimed.

**Fault tolerance** (see :mod:`repro.faults`): workers call the LLM
through a :class:`~repro.faults.ResilientClient` (bounded seeded-backoff
retries, circuit breaker, fallback on open) and never die on an
exception — they send a structured *failure ack* instead. The controller
rolls the failed cluster back (``core.step(..., aborted=...)``, the
exact inverse of its dispatch) and redispatches it up to the
:class:`~repro.config.FaultPolicy` budget, degrading the final attempt to
the scenario's fallback client; a no-progress watchdog converts a lost
ack into a diagnostic :class:`SchedulingError` instead of hanging, and
shutdown always joins the worker pool — a failed run leaks no threads.

``policy="parallel-sync"`` degrades the controller to one global cluster
per step (Algorithm 1), which is both a baseline and the reference for
the OOO-equivalence tests: a correct OOO run must produce the identical
world state.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from ..config import FaultPolicy, SchedulerConfig
from ..core.baselines import DriverStats
from ..core.controller import ControllerCore
from ..core.dependency_graph import SpatioTemporalGraph
from ..core.rules import rules_for
from ..errors import ScenarioError, SchedulingError
from ..faults import FallbackLLMClient, FaultStats, ResilientClient
from ..kvstore import KVStore
from .clients import LLMClient
from .environment import WorldProgram

_SHUTDOWN = object()


@dataclass
class LiveResult(DriverStats):
    """Outcome of a live run: the controller's stats (the §3.6 times are
    the controller thread's) plus what only a live run has."""

    target_step: int = 0
    wall_time: float = 0.0
    #: Final per-agent positions, as stored in the KV store.
    final_positions: dict[int, tuple] = field(default_factory=dict)
    #: Fault-handling accounting (retries, redispatches, breaker
    #: transitions, degraded completions...); all zero on a clean run.
    faults: FaultStats = field(default_factory=FaultStats)

    @property
    def clusters_executed(self) -> int:
        """Clusters handed to workers (redispatches included)."""
        return self.clusters_dispatched


class LiveSimulation:
    """One live run of a world program under OOO (or lock-step) control."""

    def __init__(self, program: WorldProgram, client: LLMClient,
                 scheduler: SchedulerConfig | None = None,
                 num_workers: int = 4,
                 store: KVStore | None = None,
                 fallback_client: LLMClient | None = None) -> None:
        self.program = program
        self.client = client
        self.scheduler = scheduler or SchedulerConfig()
        self.num_workers = max(num_workers, 1)
        self.store = store or KVStore()
        self.faults_policy = self.scheduler.faults or FaultPolicy()
        # Degraded-mode plan: an explicit client wins, then the
        # scenario's fallback_client() hook, then canned completions.
        self._fallback = fallback_client if fallback_client is not None \
            else self._scenario_fallback()
        # Scenario-aware: SchedulerConfig.scenario routes graph-metric
        # worlds to their GraphSpace; plain configs behave as before.
        self.rules = rules_for(self.scheduler)

    def _scenario_fallback(self) -> LLMClient:
        if self.scheduler.scenario:
            from ..scenarios import get_scenario  # lazy: import cycle
            try:
                return get_scenario(self.scheduler.scenario).fallback_client()
            except ScenarioError:
                pass
        return FallbackLLMClient()

    # -- workers ------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._ready_queue.get()
            if item[2] is _SHUTDOWN:
                return
            _, _, cluster, step, degraded = item
            # Degraded dispatch (redispatch budget exhausted) bypasses
            # the primary client entirely: the fallback plan must not
            # depend on the failing dependency.
            client = self._fallback if degraded else self._resilient
            try:
                self.program.execute(step, cluster, client)
                # One bulk position read per commit; the ack carries it
                # so the controller never re-derives positions.
                positions = self._positions_of(cluster)
                self._commit_to_store(step, cluster, positions)
                self._ack_queue.put(("ok", step, cluster, positions))
            except BaseException as exc:
                # Structured failure ack: the worker survives, the
                # controller decides (abort + redispatch or raise).
                self._ack_queue.put(("fail", step, cluster, exc))

    def _positions_of(self, aids) -> dict:
        """Bulk position read: the program's batch hook, or per-agent."""
        reader = getattr(self.program, "positions", None)
        if reader is not None:
            return dict(reader(aids))
        position = self.program.position
        return {aid: position(aid) for aid in aids}

    def _commit_to_store(self, step: int, cluster: list[int],
                         positions: dict) -> None:
        """Transactionally persist the members' post-step state."""

        def body(txn) -> None:
            for aid in cluster:
                txn.hset(f"agent:{aid}", "step", step + 1)
                txn.hset(f"agent:{aid}", "pos", positions[aid])
            txn.incr("commits")

        self.store.transaction(body)

    # -- controller ---------------------------------------------------------

    def run(self, target_step: int, start_step: int = 0) -> LiveResult:
        """Advance the world program from ``start_step`` to ``target_step``.

        When ``start_step > 0`` the program must already be in its
        step-``start_step`` state (e.g. warmed up lock-step) — useful for
        jumping straight into an active window of the simulated day.
        """
        if target_step <= start_step:
            raise SchedulingError("target_step must exceed start_step")
        # A LiveSimulation object is reusable: every run starts from
        # fresh queues, counters, and KV state (a second run would
        # otherwise accumulate stale keys and inflated stats).
        self._ready_queue: queue.PriorityQueue = queue.PriorityQueue()
        self._ack_queue: queue.Queue = queue.Queue()
        self._seq = 0
        self._attempts: dict[int, int] = {}
        self._degraded: set[int] = set()
        self._last_ack = time.monotonic()
        self._stats = LiveResult(target_step=target_step)
        self._resilient = ResilientClient(self.client, self.faults_policy,
                                          fallback=self._fallback)
        fallback_calls0 = getattr(self._fallback, "calls", 0)
        tx_retries0 = self.store.tx_retries
        injected0 = dict(getattr(self.client, "injected", {}))
        conflicts0 = self.store.injected_conflicts
        # Only the simulation's own keys: a caller-supplied store may
        # hold unrelated application data.
        self.store.delete(*self.store.keys("agent:"), "commits")
        n = self.program.n_agents
        pos0 = self._positions_of(list(range(n)))
        for aid in range(n):
            self.store.hset(f"agent:{aid}", "step", start_step)
            self.store.hset(f"agent:{aid}", "pos", pos0[aid])
        workers = [threading.Thread(target=self._worker_loop, daemon=True)
                   for _ in range(self.num_workers)]
        start = time.monotonic()
        for w in workers:
            w.start()
        try:
            if self.scheduler.policy == "parallel-sync":
                self._run_lockstep(target_step, n, start_step)
            else:
                core = ControllerCore(
                    SpatioTemporalGraph(self.rules, pos0,
                                        start_step=start_step),
                    target_step, stats=self._stats,
                    validate=self.scheduler.validate_causality)
                self._run_ooo(core)
                core.sync_stats()
        finally:
            # Shutdown must run on *every* exit path — controller raise
            # included — so a failed run never leaks live threads. The
            # workers never die on task failure, so each sentinel stops
            # exactly one of them; the join grace bounds the wait on a
            # worker stuck inside a hung LLM call (daemon threads, so
            # abandoning one cannot hang interpreter exit — it is
            # counted instead).
            for _ in workers:
                self._ready_queue.put((float("inf"), self._next_seq(),
                                       _SHUTDOWN, -1, False))
            for w in workers:
                w.join(timeout=self.faults_policy.worker_join_grace)
            leaked = sum(1 for w in workers if w.is_alive())
            self._collect_faults(fallback_calls0, tx_retries0, injected0,
                                 conflicts0, leaked)
        self._stats.wall_time = time.monotonic() - start
        self._stats.final_positions = {
            aid: self.store.hget(f"agent:{aid}", "pos") for aid in range(n)}
        return self._stats

    def _collect_faults(self, fallback_calls0: int, tx_retries0: int,
                        injected0: dict, conflicts0: int,
                        leaked: int) -> None:
        """Fold the run's fault counters into the result record."""
        faults = self._stats.faults
        resilient = self._resilient
        faults.llm_retries = resilient.retries
        faults.llm_failures = resilient.failures
        faults.llm_timeouts = resilient.timeouts
        faults.degraded_completions = \
            getattr(self._fallback, "calls", 0) - fallback_calls0 \
            if hasattr(self._fallback, "calls") else resilient.degraded
        faults.breaker_opens = resilient.breaker.opens
        faults.breaker_closes = resilient.breaker.closes
        faults.tx_retries = self.store.tx_retries - tx_retries0
        faults.leaked_workers = leaked
        injected = dict(getattr(self.client, "injected", {}))
        for kind, count in injected.items():
            delta = count - injected0.get(kind, 0)
            if delta:
                faults.injected[kind] = delta
        delta = self.store.injected_conflicts - conflicts0
        if delta:
            faults.injected["tx_conflicts"] = delta

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _submit(self, step: int, cluster: list[int],
                degraded: bool = False) -> None:
        priority = float(step) if self.scheduler.priority else 0.0
        self._ready_queue.put((priority, self._next_seq(), cluster, step,
                               degraded))

    # -- acks + watchdog ----------------------------------------------------

    def _await_ack(self, diag: Callable[[], str]) -> tuple:
        """Block for one ack; the watchdog bounds the wait.

        No worker ack within ``watchdog_timeout`` of the previous one
        (while work is in flight — the caller only blocks when it is)
        means a hang: a lost ack, a stuck client, a wedged worker. The
        watchdog raises a diagnostic :class:`SchedulingError` instead of
        blocking forever.
        """
        remaining = self.faults_policy.watchdog_timeout \
            - (time.monotonic() - self._last_ack)
        try:
            item = self._ack_queue.get(timeout=max(remaining, 0.005))
        except queue.Empty:
            raise SchedulingError(
                f"watchdog: no worker ack within "
                f"{self.faults_policy.watchdog_timeout}s\n  {diag()}"
            ) from None
        self._last_ack = time.monotonic()
        return item

    def _poll_ack(self) -> tuple | None:
        """A non-blocking ack, or None when the queue is drained."""
        try:
            item = self._ack_queue.get_nowait()
        except queue.Empty:
            return None
        self._last_ack = time.monotonic()
        return item

    # -- failure handling ---------------------------------------------------

    def _charge_failure(self, step: int, cluster: list[int],
                        exc: BaseException) -> None:
        """Charge an aborted cluster's members their redispatch budget.

        Attempt counts are per-agent so re-formed clusters with shifted
        membership keep their history; past ``max_redispatches`` the
        member's next dispatch is degraded to the fallback client, and
        one failure beyond that surfaces the original exception.
        """
        self._stats.faults.aborted_clusters += 1
        policy = self.faults_policy
        worst = 0
        for m in cluster:
            count = self._attempts.get(m, 0) + 1
            self._attempts[m] = count
            if count > policy.max_redispatches:
                self._degraded.add(m)
            if count > worst:
                worst = count
        if worst > policy.max_redispatches + 1:
            raise SchedulingError(
                f"cluster {cluster} at step {step} failed after "
                f"{policy.max_redispatches} redispatches and a degraded "
                f"dispatch: {exc!r}") from exc

    def _clear_attempts(self, members: list[int]) -> None:
        for m in members:
            self._attempts.pop(m, None)
            self._degraded.discard(m)

    # -- run loops ----------------------------------------------------------

    def _run_lockstep(self, target_step: int, n: int,
                      start_step: int = 0) -> None:
        """Algorithm 1, the reference loop: one global cluster per step."""
        everyone = list(range(n))
        policy = self.faults_policy
        stats = self._stats
        for step in range(start_step, target_step):
            def in_flight() -> str:
                return (f"lock-step batch of step {step} (target "
                        f"{target_step}) in flight\n  last ack "
                        f"{time.monotonic() - self._last_ack:.3f}s ago, "
                        f"{stats.faults.redispatches} redispatches so far")

            attempts = 0
            while True:
                self._submit(step, everyone,
                             degraded=attempts > policy.max_redispatches)
                stats.clusters_dispatched += 1
                stats.cluster_size_sum += n
                kind, _, _, payload = self._await_ack(in_flight)
                if kind == "ok":
                    break
                attempts += 1
                stats.faults.aborted_clusters += 1
                stats.faults.redispatches += 1
                if attempts > policy.max_redispatches + 1:
                    raise SchedulingError(
                        f"lock-step batch at step {step} failed after "
                        f"{policy.max_redispatches} redispatches and a "
                        f"degraded dispatch: {payload!r}") from payload
            stats.tasks_completed += n

    def _run_ooo(self, core: ControllerCore) -> None:
        """Algorithm 3 over threads: the core decides, the queues carry."""
        def diagnostics() -> str:
            return core.stalled(
                ready_depth=self._ready_queue.qsize(),
                ack_depth=self._ack_queue.qsize(),
                last_ack_age=time.monotonic() - self._last_ack,
                redispatches=self._stats.faults.redispatches)

        acks: list[tuple] = []
        in_flight = 0
        while True:
            # One core step per ack batch (ack coalescing: the controller
            # drains whatever finished while it slept), positions
            # straight from the ack payloads.
            members_all: list[int] = []
            new_positions: dict[int, tuple] = {}
            aborted: list[list[int]] = []
            for kind, step, cluster, payload in acks:
                if kind == "fail":
                    # Crash-consistent rollback: nothing was committed,
                    # so aborting restores the exact pre-dispatch graph.
                    aborted.append(cluster)
                    self._charge_failure(step, cluster, payload)
                    continue
                members_all += cluster
                new_positions.update(payload)
            clusters = core.step(members_all, new_positions,
                                 aborted=aborted)
            self._clear_attempts(members_all)
            t0 = core.clock()
            for step, cluster in clusters:
                if self._attempts and any(m in self._attempts
                                          for m in cluster):
                    self._stats.faults.redispatches += 1
                degraded = bool(self._degraded) and \
                    any(m in self._degraded for m in cluster)
                self._submit(step, cluster, degraded)
            self._stats.time_dispatch += core.clock() - t0
            in_flight += len(clusters)
            if core.finished():
                return
            if in_flight == 0:
                raise SchedulingError(
                    f"live scheduler stalled\n  {diagnostics()}")
            acks = [self._await_ack(diagnostics)]
            while (ack := self._poll_ack()) is not None:
                acks.append(ack)
            in_flight -= len(acks)
