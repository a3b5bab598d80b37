"""Algorithm 3 in virtual time: the replay transport of the controller.

:class:`~repro.core.controller.ControllerCore` is the paper's
**controller** — clusters of coupled ready agents (§3.4), dispatch of
every cluster whose members are unblocked, graph update on acks (§3.3).
This driver plays the **workers** and everything virtual-time around
them: it runs each claimed cluster's member chains concurrently against
the serving engine (priority-ordered by step when a worker cap is set,
§3.5), gathers the members' next positions from the trace, and hands
both back to the core. A round runs as one kernel event per virtual
instant (§3.6 light critical path):

1. every cluster finishing at that instant is in one round batch; the
   **movers-only gather** reads the trace's one-byte ``moved`` mask per
   member and fetches a next position only for the movers (one fancy
   index into the step-major store), the rest commit without geometry;
2. **one** ``core.step`` commits the batch, releases waiters, forms the
   dirty components and claims the dispatchable ones;
3. each claimed cluster takes a worker slot (uncapped, or, under a
   worker cap, from a ``heapq`` keyed by the cluster's §3.5 priority,
   FIFO among equal keys). The trace's ``calling`` mask splits them: a
   cluster none of whose members calls — most of them — skips the
   launch event and goes straight into the round batch due when its
   chains would have ended; the rest launch together through one event
   into :meth:`ChainExecutor.run_round` and join their round batch when
   their last chain ends.

``DriverStats.extra["kernel_events"]`` counts the events the *driver*
schedules (launches with a call, rounds), well below one per cluster;
``kernel_events_total`` is every event any layer scheduled.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from time import perf_counter

import numpy as np

from ..config import SchedulerConfig
from ..devent import Kernel
from ..errors import SchedulingError
from ..serving import ServingEngine
from ..trace import Trace
from .controller import ControllerCore
from .dependency_graph import SpatioTemporalGraph
from .oracle import MinedGroupGraph
from .rules import rules_for
from .tasks import ChainExecutor


class MetropolisDriver:
    """Out-of-order replay of a trace under the §3.2 rules, or, for the
    ``oracle`` policy, under the trace's mined interaction groups."""

    def __init__(self, kernel: Kernel, engine: ServingEngine, trace: Trace,
                 config: SchedulerConfig, executor: ChainExecutor,
                 clock=perf_counter) -> None:
        self.kernel = kernel
        self.engine = engine
        self.trace = trace
        self.config = config
        self.executor = executor
        self.rules = rules_for(config, trace.meta)
        #: Step-major trace position store and its did-it-move mask:
        #: commit batches gather the movers' (step + 1, agent) rows in
        #: one flat fancy index.
        self._pos_sa = trace.positions_by_step
        self._pos_flat = trace.positions_flat
        self._moved = trace.moved
        #: Its twin: does the (step, agent) chain hold an LLM call?
        self._calling = trace.calling
        #: ``oracle`` runs the same controller over the mined groups.
        graph = MinedGroupGraph(trace, self.rules) \
            if config.policy == "oracle" \
            else SpatioTemporalGraph(self.rules, self._pos_sa[0])
        self.core = ControllerCore(
            graph, trace.meta.n_steps, clock=clock,
            validate=config.validate_causality)
        self.graph = self.core.graph
        self.stats = self.core.stats
        #: Per agent, the sorted steps whose chains contain LLM calls —
        #: the replay-mode half of the invocation-distance signal (the
        #: trace is known, as with ``ignore_eos`` output lengths).
        self._call_steps = [np.flatnonzero(row).tolist()
                            for row in trace.chain_lengths()]
        #: Scheduler-aware serving: the engine's KV eviction key is the
        #: live invocation-distance prediction per agent.
        engine.set_distance_provider(self.invocation_distance)
        #: Dispatchable clusters awaiting a worker slot (when capped),
        #: a heap of ``(priority, arrival seq, step, cluster)``.
        self._pending: list[tuple[float, int, int, list[int]]] = []
        self._pending_seq = 0
        #: Clusters launched (or staged to launch) and not yet retired.
        self._busy_workers = 0
        #: Single-event rounds: clusters finishing at the same virtual
        #: instant buffer under their shared commit due-time.
        self._round_pending: dict[float, list[tuple[int, list[int]]]] = {}
        #: Kernel events scheduled by the driver (the §3.6 churn gauge;
        #: amortized well below one per cluster with batched rounds).
        self._kernel_events = 0
        #: §6 hybrid deployment: latency-critical agents (see
        #: SchedulerConfig.interactive_agents), and whether they preempt.
        #: The oracle measures them but has no spatial cone to boost.
        self._interactive = frozenset(config.interactive_agents)
        self._boost = bool(self._interactive and config.interactive_boost
                           and config.policy != "oracle")
        #: Agents inside any interactive agent's dependency cone,
        #: refreshed at most once per controller round via the spatial
        #: index (None = recompute on next use).
        self._cone_cache: set[int] | None = None
        self._last_commit_time: dict[int, float] = {
            aid: 0.0 for aid in self._interactive}
        #: Per-step latencies observed for interactive agents (seconds).
        self.interactive_latencies: list[float] = []
        self.stats.extra["interactive_latencies"] = self.interactive_latencies

    # -- scheduler-aware serving -----------------------------------------

    def invocation_distance(self, aid: int) -> float:
        """Predicted steps until ``aid``'s next LLM call (KV eviction key).

        The trace lookahead: how many steps ahead ``aid``'s next
        *call-bearing* chain sits, blocked or not (replay mode knows the
        trace, the same way it knows output lengths). An agent walking a
        long call-free route was used recently but won't need its KV for
        many steps — precisely the segment LRU keeps and this evicts.
        Agents with no calls left in the window return ``inf`` (ideal
        victims).
        """
        steps = self._call_steps[aid]
        s = self.graph.step[aid]
        i = bisect_left(steps, s)
        if i >= len(steps):
            return float("inf")
        return float(steps[i] - s)

    # -- controller ------------------------------------------------------

    def start(self) -> None:
        self._dispatch(self.core.step((), {}))

    def _dispatch(self, clusters: list[tuple[int, list[int]]]) -> None:
        """Give the round's claimed clusters worker slots and stage them.

        Uncapped, every cluster dispatches this instant; under a cap
        they queue in a heap by :meth:`_cluster_priority`, then arrival,
        and the free slots take its front. A cluster none of whose
        members calls at its step has nothing to launch: it goes
        straight into the round batch due at ``((now +
        controller_dispatch) + agent_step) + cluster_commit``, where the
        launch event and the executor's start event would have queued
        it — the same float additions in the same order. The rest launch
        together through one event (:meth:`_launch_batch`).
        """
        clock = self.core.clock
        t0 = clock()
        cap = self.config.num_workers
        boost = self._boost
        if boost:
            self._cone_cache = None
        if cap:
            pending = self._pending
            for s, cluster in clusters:
                self._pending_seq += 1
                heappush(pending, (self._cluster_priority(s, cluster),
                                   self._pending_seq, s, cluster))
            clusters = []
            while pending and self._busy_workers + len(clusters) < cap:
                _, _, s, cluster = heappop(pending)
                clusters.append((s, cluster))
        self._busy_workers += len(clusters)
        calling = self._calling
        n = self.graph.n_agents
        launches: list[tuple[list[int], int, float]] = []
        quiet: list[tuple[int, list[int]]] | None = None
        for s, cluster in clusters:
            if boost and not cap:
                self._pending_seq += 1  # only a boosted priority reads it
            base = s * n
            for aid in cluster:
                if calling[base + aid]:
                    launches.append((cluster, s, self._cluster_priority(
                        s, cluster) if boost else float(s)))
                    break
            else:
                if quiet is None:
                    overhead = self.config.overhead
                    quiet = self._round_batch(
                        ((self.kernel.now + overhead.controller_dispatch)
                         + overhead.agent_step) + overhead.cluster_commit)
                quiet.append((s, cluster))
        if launches:
            self._kernel_events += 1
            self.kernel.call_in(self.config.overhead.controller_dispatch,
                                self._launch_batch, launches)
        self.stats.time_dispatch += clock() - t0
        if not self._busy_workers:
            self._check_progress()

    def _cluster_priority(self, step: int, cluster: list[int]) -> float:
        """Serving-side request priority for a cluster (lower = sooner).

        Interactive clusters — and any cluster inside an interactive
        agent's dependency cone, which could block it within the
        configured horizon — preempt everything (§6 hybrid deployment);
        otherwise step order under priority scheduling, arrival order
        without.
        """
        if self._boost and self._in_interactive_cone(cluster):
            return -1e9 + step
        if self.config.priority:
            return float(step)
        return float(self._pending_seq)

    def _cone_agents(self) -> set[int]:
        """Agents within the interactive dependency cone, via the index.

        One spatial query per interactive agent per controller round
        replaces the O(|interactive| x |cluster|) pairwise scan that
        every enqueue/dispatch used to pay.
        """
        cone = self._cone_cache
        if cone is None:
            radius = self.rules.block_threshold(
                self.config.interactive_horizon)
            cone = set(self._interactive)
            graph = self.graph
            for iid in self._interactive:
                cone.update(graph.index.query(graph.pos[iid], radius))
            self._cone_cache = cone
        return cone

    def _in_interactive_cone(self, cluster: list[int]) -> bool:
        return not self._cone_agents().isdisjoint(cluster)

    def _check_progress(self) -> None:
        """Raise when nothing is in flight and the run is not done."""
        if (not self._busy_workers and not self._pending
                and not self._round_pending and not self.core.finished()):
            raise SchedulingError(
                "scheduler stalled\n  " + self.core.stalled(
                    ready_depth=len(self._pending),
                    ack_depth=len(self._round_pending)))

    # -- workers -----------------------------------------------------------

    def _launch_batch(self, launches: list[tuple[list[int], int, float]]
                      ) -> None:
        """The launch event: every cluster of the round that calls."""
        self.executor.run_round(launches, self._queue_commit)

    def _queue_commit(self, step: int, members: list[int]) -> None:
        """Buffer a finished cluster for its instant's controller round."""
        self._round_batch(
            self.kernel.now + self.config.overhead.cluster_commit
        ).append((step, members))

    def _round_batch(self, due: float) -> list[tuple[int, list[int]]]:
        """The clusters retiring at ``due``: one round event for all."""
        batch = self._round_pending.get(due)
        if batch is None:
            self._round_pending[due] = batch = []
            self._kernel_events += 1
            self.kernel.call_at(due, self._controller_round_event, due)
        return batch

    def _controller_round_event(self, due: float) -> None:
        """One controller round over the batch due now (module docstring).

        A member whose ``moved`` byte is clear is absent from the
        positions mapping: it stayed put.
        """
        batch = self._round_pending.pop(due)
        self._busy_workers -= len(batch)
        clock = self.core.clock
        t0 = clock()
        n = self.graph.n_agents
        moved = self._moved
        members_all: list[int] = []
        movers: list[int] = []
        rows: list[int] = []
        for step, members in batch:
            members_all += members
            base = step * n
            for aid in members:
                if moved[base + aid]:
                    movers.append(aid)
                    rows.append(base + n + aid)
        positions = {aid: (r[0], r[1]) for aid, r in
                     zip(movers, self._pos_flat[rows].tolist())} \
            if movers else {}
        # The trace gather is graph-update work: same bucket as the commit.
        self.stats.time_graph += clock() - t0
        if self._interactive:
            now = self.kernel.now
            for aid in members_all:
                if aid in self._interactive:
                    self.interactive_latencies.append(
                        now - self._last_commit_time[aid])
                    self._last_commit_time[aid] = now
        self._dispatch(self.core.step(members_all, positions))

    def finished(self) -> bool:
        """Drained to the last step? Also the end-of-run stats fold."""
        self.core.sync_stats()
        extra = self.stats.extra
        extra["kernel_events"] = self._kernel_events
        # Every layer's events (executor start events, engine
        # iterations), not just the driver's own.
        extra["kernel_events_total"] = self.kernel.events_scheduled
        engine_faults = getattr(self.engine, "fault_stats", None)
        if engine_faults is not None:
            extra.update(engine_faults())
        return self.core.finished()
