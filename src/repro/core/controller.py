"""The Algorithm 3 controller step, independent of how work is executed.

The paper's architecture (§3.1) has one controller: dependency graph →
geo-clusters → ready queue, acks → commit. :class:`ControllerCore` is
that controller and nothing else: it drives one dependency graph and
owns the ``ready`` / ``done`` agent sets and one :class:`DriverStats`.
The graph is an argument: the §3.2 rules'
:class:`~repro.core.dependency_graph.SpatioTemporalGraph`, or the
oracle's :class:`~repro.core.oracle.MinedGroupGraph`, which answers the
same surface from the trace's mined interaction groups. A *transport*
owns execution — the virtual-time kernel
(:class:`~repro.core.metropolis.MetropolisDriver`) or worker threads
and queues (:class:`~repro.live.engine.LiveSimulation`) — and makes one
call per round:

    clusters = core.step(finished, positions, aborted=failed)

which commits the finished members one step (one graph commit for the
whole ack batch), releases their waiters, rolls the failed clusters
back, forms the coupling components around that dirty frontier and
claims the dispatchable ones. The transport runs what it gets and
comes back with the acks; the first call (nothing finished yet) forms
every agent's component. Besides ``step`` the core answers
``finished()``, ``stalled()`` and ``sync_stats()``. Positions are an
argument, so the core never sees a trace, a kernel, a queue or a
thread.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from ..faults import scheduler_diagnostics
from .baselines import DriverStats
from .space import Position

if TYPE_CHECKING:
    from .dependency_graph import SpatioTemporalGraph
    from .oracle import MinedGroupGraph


class ControllerCore:
    """Dependency graph + ready/done sets + stats behind one round verb."""

    def __init__(self, graph: "SpatioTemporalGraph | MinedGroupGraph",
                 target_step: int, *, stats: DriverStats | None = None,
                 clock: Callable[[], float] = perf_counter,
                 validate: bool = False) -> None:
        self.graph = graph
        self.target_step = target_step
        self.stats = stats if stats is not None else DriverStats()
        #: Time source of the §3.6 critical-path accounting. Wall clock
        #: by default; shard-worker processes pass ``time.process_time``
        #: so a worker's controller seconds measure its own CPU work
        #: even when workers timeshare cores.
        self.clock = clock
        #: Re-check the graph's invariants against the blockers held
        #: before each commit (debug mode).
        self.validate = validate
        #: Agents finished with their previous step and not yet claimed.
        self.ready: set[int] = set(range(self.graph.n_agents))
        #: Agents that reached ``target_step``.
        self.done: set[int] = set()
        #: The latest commit's per-member coupling candidates (exact
        #: until the next commit): an empty list is a component of one.
        self._fresh: Mapping[int, Sequence[int]] = {}
        #: Component searches run by :meth:`_claim`.
        self._components = 0

    def finished(self) -> bool:
        return len(self.done) == self.graph.n_agents

    def step(self, finished: list[int], positions: Mapping[int, Position],
             *, aborted: Iterable[list[int]] = ()
             ) -> list[tuple[int, list[int]]]:
        """One controller round; returns the claimed ``(step, members)``.

        ``finished`` may span several clusters (ack coalescing) and is
        committed in one graph commit; ``positions`` maps the movers to
        their new positions (see :meth:`SpatioTemporalGraph.commit`).
        Each ``aborted`` cluster is rolled back — nothing of it was
        committed — and its members are ready again. Every coupling
        component around that dirty frontier (everyone, on the first
        round) whose members are all unblocked is claimed, in sorted
        seed order.
        """
        dirty = self._commit(finished, positions)
        for cluster in aborted:
            self.graph.abort_running(cluster)
            self.ready.update(cluster)
            dirty.update(cluster)
        return self._claim(dirty)

    def _commit(self, members: list[int],
                positions: Mapping[int, Position]) -> set[int]:
        """:meth:`step`'s first half: commit; return the dirty frontier.

        The frontier is the members and the newly unblocked waiters. A
        ready agent near a member needs no entry of its own: its cluster
        changes dispatchability only by gaining a member (the search
        seeded by that member finds it) or by losing a blocked edge (it
        is in ``unblocked``). With nothing to commit (the first round, or
        a live ack batch of failures only) it is every ready agent, which
        re-forms the same clusters: every other dispatchable one already
        runs.
        """
        if not members:
            return set(self.ready)
        t0 = self.clock()
        graph = self.graph
        if self.validate:
            blockers = [graph.blockers_of(aid)
                        for aid in range(graph.n_agents)]
        result = graph.commit(members, positions)
        self._fresh = result.member_neighbors
        stats = self.stats
        stats.tasks_completed += len(members)
        max_step = graph.max_step
        spread = max_step - graph.min_step
        if spread > stats.max_step_spread:
            stats.max_step_spread = spread
        if self.validate:
            graph.validate(members, blockers)
        dirty = set(members)
        if max_step >= self.target_step:
            done = {aid for aid in members
                    if graph.step[aid] >= self.target_step}
            self.done |= done
            dirty -= done
        ready = self.ready
        ready |= dirty
        dirty |= ready & result.unblocked
        stats.time_graph += self.clock() - t0
        return dirty

    def _claim(self, dirty: set[int]) -> list[tuple[int, list[int]]]:
        """:meth:`step`'s second half: cluster the frontier and claim
        what is dispatchable, in one batched graph transition."""
        t0 = self.clock()
        graph = self.graph
        component = graph.component_for
        blocked_by = graph.blocked_by
        step = graph.step
        ready = self.ready
        fresh = self._fresh
        visited: set[int] = set()
        clusters: list[tuple[int, list[int]]] = []
        batch: list[int] = []
        searches = 0
        # Sorted iteration pins cluster discovery (and so dispatch and
        # virtual timing) to a deterministic order: set-hash layout
        # never matters.
        for aid in sorted(dirty):
            if aid in visited or aid not in ready:
                continue
            searches += 1
            candidates = fresh.get(aid)
            if candidates is not None and not candidates:
                # Committed with nobody to couple to (most agent-steps):
                # the component is the agent itself, no search runs.
                visited.add(aid)
                if not blocked_by[aid]:
                    clusters.append((step[aid], [aid]))
                    batch.append(aid)
                continue
            cluster = component(aid, visited, True)
            for m in cluster:
                if blocked_by[m]:
                    break
            else:
                clusters.append((step[aid], cluster))
                batch += cluster
        ready.difference_update(batch)
        graph.mark_running(batch)
        stats = self.stats
        stats.clusters_dispatched += len(clusters)
        stats.cluster_size_sum += len(batch)
        stats.controller_rounds += 1
        self._components += searches
        stats.time_clustering += self.clock() - t0
        return clusters

    def stalled(self, **transport) -> str:
        """Why nothing can run: who is blocked on whom, what is running.

        ``transport`` carries the caller's own evidence (queue depths,
        last-ack age, redispatch count) into the same report.
        """
        graph = self.graph
        blocked = {aid: sorted(graph.blockers_of(aid))
                   for aid in sorted(self.ready) if graph.blocked_by[aid]}
        running = [aid for aid, on in enumerate(graph.running) if on]
        return scheduler_diagnostics(
            done=len(self.done), total=graph.n_agents, blocked=blocked,
            running=running, **transport)

    def sync_stats(self) -> None:
        """Fold the graph's counters into the stats record.

        Called at end-of-run instead of every round: the counters live
        on the graph, so per-round mirroring was pure hot-loop cost.
        """
        graph = self.graph
        stats = self.stats
        stats.blocked_events = graph.blocked_events
        stats.unblock_events = graph.unblock_events
        extra = stats.extra
        # No component memo is left to hit; every search is a BFS.
        extra["cluster_cache_hits"] = 0
        extra["cluster_cache_misses"] = self._components
        extra["graph_scans"] = graph.scans
        extra["graph_scan_skips"] = graph.scan_skips
        extra["graph_near_checks"] = graph.near_checks
        extra["graph_wake_skips"] = graph.wake_skips
        # Every space answers with cells, so no scan falls back; the
        # constant stays for its reader, benchmarks/e2e/workloads.py.
        extra["graph_fallback_scans"] = 0
        extra["graph_scanned_slots"] = graph.scanned_slots
        extra["shards"] = 1  # the worker-pool merge reports its plan's
