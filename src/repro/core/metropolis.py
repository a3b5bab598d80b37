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
3. each claimed cluster takes a worker slot (uncapped, or from the
   **step-keyed dispatch buckets**: numpy-backed, keyed by integer step
   priority instead of a heap of python tuples). The trace's ``calling``
   mask splits them: a cluster none of whose members calls — most of
   them — skips the launch event and goes straight into the round batch
   due when its chains would have ended; the rest launch together
   through one event into :meth:`ChainExecutor.run_round` and join
   their round batch when their last chain ends.

``DriverStats.extra["kernel_events"]`` counts the events the *driver*
schedules (launches with a call, rounds), well below one per cluster;
``kernel_events_total`` is every event any layer scheduled.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
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

#: Interactive clusters sort before every regular step key (§6 hybrid
#: deployment) while keeping step order among themselves.
_INTERACTIVE_BOOST = 1 << 40


class _DispatchBuckets:
    """Step-keyed dispatch queue (§3.5 priority order without a heap).

    Pending clusters bucket by an integer priority key — the step under
    priority scheduling, a constant in FIFO mode, ``step -
    _INTERACTIVE_BOOST`` for interactive clusters — FIFO within a
    bucket. Active keys sit densely packed in a numpy vector, so pop is
    one vectorized argmin over the live prefix (the live key count
    tracks the step spread: a handful) instead of log-n python tuple
    comparisons per push/pop.
    """

    __slots__ = ("_buckets", "_keys", "_count", "_n")

    def __init__(self) -> None:
        self._buckets: dict[int, deque] = {}
        self._keys = np.empty(8, dtype=np.int64)
        self._count = 0
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def push(self, key: int, item) -> None:
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = bucket = deque()
            count = self._count
            if count == len(self._keys):
                self._keys = np.resize(self._keys, count * 2)
            self._keys[count] = key
            self._count = count + 1
        bucket.append(item)
        self._n += 1

    def pop(self):
        """Remove and return the item with the smallest key (FIFO ties)."""
        count = self._count
        idx = int(np.argmin(self._keys[:count])) if count > 1 else 0
        key = int(self._keys[idx])
        bucket = self._buckets[key]
        item = bucket.popleft()
        self._n -= 1
        if not bucket:
            del self._buckets[key]
            count -= 1
            self._count = count
            if idx != count:
                self._keys[idx] = self._keys[count]
        return item


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
        #: Dispatchable clusters awaiting a worker slot (when capped).
        self._pending = _DispatchBuckets()
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

        Two ingredients, take the max:

        * the dependency graph's wake-step bound — how many steps the
          slowest blocker must commit before ``aid`` can even be
          dispatched (:meth:`SpatioTemporalGraph.invocation_distance`);
        * the trace lookahead — how many steps ahead ``aid``'s next
          *call-bearing* chain sits (replay mode knows the trace, the
          same way it knows output lengths). An agent walking a long
          call-free route was used recently but won't need its KV for
          many steps — precisely the segment LRU keeps and this evicts.

        Agents with no calls left in the window return ``inf`` (ideal
        victims).
        """
        wake = self.graph.invocation_distance(aid)
        steps = self._call_steps[aid]
        s = self.graph.step[aid]
        i = bisect_left(steps, s)
        if i >= len(steps):
            return float("inf")
        gap = float(steps[i] - s)
        return gap if gap > wake else wake

    # -- controller ------------------------------------------------------

    def start(self) -> None:
        self._dispatch(self.core.step((), {}))

    def _dispatch(self, clusters: list[tuple[int, list[int]]]) -> None:
        """Give the round's claimed clusters worker slots and stage them.

        Uncapped, every cluster dispatches this instant; under a cap
        they queue in the step-keyed buckets and the free slots take
        the front of the queue. A cluster none of whose members calls
        at its step has nothing to launch: it goes straight into the
        round batch due at ``((now + controller_dispatch) + agent_step)
        + cluster_commit``, where the launch event and the executor's
        start event would have queued it — the same float additions in
        the same order. The rest launch together through one event
        (:meth:`_launch_batch`).
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
                pending.push(self._dispatch_key(s, cluster), (s, cluster))
            clusters = []
            while pending and self._busy_workers + len(clusters) < cap:
                clusters.append(pending.pop())
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

    def _dispatch_key(self, step: int, cluster: list[int]) -> int:
        """Integer dispatch-bucket key mirroring ``_cluster_priority``."""
        if self._boost and self._in_interactive_cone(cluster):
            return step - _INTERACTIVE_BOOST
        if self.config.priority:
            return step
        return 0  # FIFO: one bucket, arrival order

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
