"""Algorithm 3 in virtual time: the replay transport of the controller.

:class:`~repro.core.controller.ControllerCore` is the paper's
**controller** — clusters of coupled ready agents (§3.4), dispatch of
every cluster whose members are unblocked, graph update on acks (§3.3).
This driver plays the **workers** and everything virtual-time around
them: it runs each claimed cluster's member chains concurrently against
the serving engine (priority-ordered by step when a worker cap is set,
§3.5), gathers the members' next positions from the trace, and hands
both back to the core. Its share of the light critical path (§3.6):

* **single-event rounds** — one kernel event per virtual instant does
  everything: all clusters finishing at that instant retire through one
  batched graph commit, then one dispatch round runs, and every cluster
  it dispatches launches through one shared dispatch event. That event
  buffers the clusters that hold no LLM call (the trace says which:
  most of them) straight for their round and hands the rest to
  :meth:`ChainExecutor.run_round` (one chain gather, one start event).
  ``DriverStats.extra["kernel_events"]`` counts the events the *driver*
  schedules (launch + round, all a call-free round costs), amortized
  well below one per cluster; ``kernel_events_total`` is every event
  any layer scheduled on the kernel;
* **step-keyed dispatch buckets** — pending clusters queue in numpy-
  backed buckets keyed by integer step priority instead of a heap of
  python tuples;
* **movers-only trace gather** — most agent-steps do not move the
  agent: a commit batch reads the trace's one-byte ``moved`` mask per
  member and gathers a next position from the step-major store only
  for the movers (one fancy index); the rest commit without geometry.
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
from .rules import rules_for
from .sharding import plan_regions
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
    """Out-of-order replay of a trace under the §3.2 rules."""

    def __init__(self, kernel: Kernel, engine: ServingEngine, trace: Trace,
                 config: SchedulerConfig, executor: ChainExecutor,
                 shard_plan: list[list[int]] | None = None,
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
        #: Its twin, one byte per (step, agent): does the chain hold an
        #: LLM call? Clusters without one never reach the executor.
        self._calling = trace.calling
        #: ``shard_plan`` overrides region planning outright — the
        #: multiprocess workers pass their slice of the parent's global
        #: plan so per-shard graph state matches the in-process
        #: ``ShardedGraph`` bit-for-bit instead of being re-planned.
        if shard_plan is None and config.shards >= 2:
            shard_plan = plan_regions(trace, self.rules, config.shards)
        self.core = ControllerCore(
            self.rules, self._pos_sa[0], trace.meta.n_steps,
            shard_plan=shard_plan, clock=clock,
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
        #: instant buffer under their shared commit due-time; one kernel
        #: event retires the whole batch through one graph commit and
        #: runs one dispatch round.
        self._round_pending: dict[float, list[tuple[int, list[int]]]] = {}
        #: Kernel events scheduled by the driver (the §3.6 churn gauge;
        #: amortized well below one per cluster with batched rounds).
        self._kernel_events = 0
        #: §6 hybrid deployment: latency-critical agents (see
        #: SchedulerConfig.interactive_agents).
        self._interactive = frozenset(config.interactive_agents)
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
        self._controller_round(set(self.core.ready))

    def _controller_round(self, dirty: set[int], exclude=None) -> None:
        """Re-cluster around ``dirty`` agents and dispatch what is ready."""
        self._cone_cache = None
        core = self.core
        clusters = core.ready_clusters(dirty, exclude)
        t0 = core.clock()
        core.claim(clusters)
        if self.config.num_workers == 0 and clusters:
            # Uncapped workers: every unblocked cluster dispatches this
            # instant, so the pending buckets are bypassed outright and
            # the whole round launches through one kernel event.
            launches: list[tuple[list[int], int, float]] = []
            for s, cluster in clusters:
                self._pending_seq += 1
                self._admit(s, cluster, launches)
            self._kernel_events += 1
            self.kernel.call_in(self.config.overhead.controller_dispatch,
                                self._launch_batch, launches)
        else:
            for s, cluster in clusters:
                self._pending_seq += 1
                self._pending.push(self._dispatch_key(s, cluster),
                                   (cluster, s))
            self._fill_workers()
        self.stats.time_dispatch += core.clock() - t0
        self._check_progress()

    def _cluster_priority(self, step: int, cluster: list[int]) -> float:
        """Serving-side request priority for a cluster (lower = sooner).

        Interactive clusters — and any cluster inside an interactive
        agent's dependency cone, which could block it within the
        configured horizon — preempt everything (§6 hybrid deployment);
        otherwise step order under priority scheduling, arrival order
        without.
        """
        if self._interactive and self.config.interactive_boost \
                and self._in_interactive_cone(cluster):
            return -1e9 + step
        if self.config.priority:
            return float(step)
        return float(self._pending_seq)

    def _dispatch_key(self, step: int, cluster: list[int]) -> int:
        """Integer dispatch-bucket key mirroring ``_cluster_priority``."""
        if self._interactive and self.config.interactive_boost \
                and self._in_interactive_cone(cluster):
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

    def _admit(self, step: int, cluster: list[int],
               launches: list[tuple[list[int], int, float]]) -> None:
        """Claim a worker slot for ``cluster`` and stage its launch."""
        self._busy_workers += 1
        priority = self._cluster_priority(step, cluster) \
            if (self._interactive and self.config.interactive_boost) \
            else float(step)
        launches.append((cluster, step, priority))

    def _fill_workers(self) -> None:
        """Dispatch pending clusters into free worker slots.

        Every cluster dispatched here shares the round's virtual
        instant, so the whole batch launches through a single kernel
        event instead of one per cluster.
        """
        cap = self.config.num_workers
        pending = self._pending
        launches: list[tuple[list[int], int, float]] = []
        while pending and (cap == 0 or self._busy_workers < cap):
            cluster, step = pending.pop()
            self._admit(step, cluster, launches)
        if launches:
            self._kernel_events += 1
            self.kernel.call_in(self.config.overhead.controller_dispatch,
                                self._launch_batch, launches)

    def _check_progress(self) -> None:
        if (not self._busy_workers and not self._pending
                and not self._round_pending and not self.core.finished()):
            raise SchedulingError(
                "scheduler stalled\n  " + self.core.stalled(
                    ready_depth=len(self._pending),
                    ack_depth=len(self._round_pending)))

    # -- workers -----------------------------------------------------------

    def _launch_batch(self, launches: list[tuple[list[int], int, float]]
                      ) -> None:
        """Launch one dispatch round; call-free clusters skip the executor.

        A cluster none of whose members calls would ride a chain gather
        and the executor's start event only to be handed straight back.
        It is pinned here, at the launch instant like every cluster,
        and buffered for the round the start event would have queued
        it for: ``(now + agent_step) + cluster_commit``, the same two
        additions in the same order, so due-times and batch order are
        bit-identical. The rest go to the executor and commit when
        their last chain ends.
        """
        calling = self._calling
        n = self.graph.n_agents
        prefetch = self.engine.prefetch
        quiet: list[tuple[int, list[int]]] | None = None
        chains = []
        for launch in launches:
            members, step, _ = launch
            base = step * n
            for aid in members:
                if calling[base + aid]:
                    chains.append(launch)
                    break
            else:
                prefetch(members)
                if quiet is None:
                    overhead = self.config.overhead
                    quiet = self._round_batch(
                        (self.kernel.now + overhead.agent_step)
                        + overhead.cluster_commit)
                quiet.append((step, members))
        if chains:
            self.executor.run_round(chains, self._queue_commit)

    def _queue_commit(self, step: int, members: list[int]) -> None:
        """Buffer a finished cluster for its instant's controller round."""
        self._round_batch(
            self.kernel.now + self.config.overhead.cluster_commit
        ).append((step, members))

    def _round_batch(self, due: float) -> list[tuple[int, list[int]]]:
        """The batch of clusters retiring at ``due``, with its one event.

        Clusters finishing at the same virtual instant share one round
        event: the round retires the whole batch through one graph
        commit, then dispatches.
        """
        batch = self._round_pending.get(due)
        if batch is None:
            self._round_pending[due] = batch = []
            self._kernel_events += 1
            self.kernel.call_at(due, self._controller_round_event, due)
        return batch

    def _controller_round_event(self, due: float) -> None:
        batch = self._round_pending.pop(due)
        self._busy_workers -= len(batch)
        self._controller_round(self._retire(batch))

    def _retire(self, batch: list[tuple[int, list[int]]]) -> set[int]:
        """Retire every cluster of the batch in one graph commit."""
        core = self.core
        t0 = core.clock()
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
        # Only movers read the trace; a member absent from the mapping
        # stayed put (the common case: the gather is skipped outright).
        positions = {aid: (r[0], r[1]) for aid, r in
                     zip(movers, self._pos_flat[rows].tolist())} \
            if movers else {}
        # The trace gather is graph-update work: same bucket as the commit.
        self.stats.time_graph += core.clock() - t0
        dirty = core.retire(members_all, positions)
        if self._interactive:
            now = self.kernel.now
            for aid in members_all:
                if aid in self._interactive:
                    self.interactive_latencies.append(
                        now - self._last_commit_time[aid])
                    self._last_commit_time[aid] = now
        return dirty

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
