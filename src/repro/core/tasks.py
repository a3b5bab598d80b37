"""Agent-step task execution.

A *task* is one agent's work for one simulation step: a fixed per-step
overhead (perceive / move / world bookkeeping — the non-LLM ~5% the paper
measures) followed by the agent's LLM call chain, executed sequentially
because each call's prompt depends on the previous call's response
(Algorithm 2: perceive -> retrieve -> plan).

All scheduler drivers share this executor; they differ only in *when*
they start tasks. Two entry points, one chain-advance implementation
(:class:`_ClusterRun`):

* :meth:`ChainExecutor.run_round` — a whole dispatch round (every
  cluster a controller round launches at one virtual instant). One
  vectorized binary search over the trace's sorted call keys
  (:meth:`repro.trace.Trace.chain_bounds` with a per-member step
  vector) resolves every member's chain, the KV of the
  members that call is pinned at the launch instant, and **one**
  kernel event starts the whole round after the per-step overhead. In
  that event each cluster submits its members' first calls to the
  serving engine in one batch; a member without a call is finished on
  the spot. (The replay driver never sends a cluster *none* of whose
  members calls: it knows the trace and buffers those for their commit
  round itself, see :meth:`repro.core.metropolis.MetropolisDriver._dispatch`.)
* :meth:`ChainExecutor.run_cluster` — one cluster, one lookup, one
  start event, completion reported per member (the lock-step and
  single-thread paths) or once per cluster
  (a round of a single cluster, which has nothing to fold).

Neither materializes per-task chains or allocates per-call closures.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..config import OverheadConfig
from ..devent import Kernel
from ..serving import LLMRequest, ServingEngine
from ..trace import Trace

#: Completion callback signature: (agent_id, step).
TaskDone = Callable[[int, int], None]
#: Whole-cluster completion callback signature: (step, members).
ClusterDone = Callable[[int, Sequence[int]], None]
#: One cluster of a dispatch round: (members, step, priority).
Launch = tuple[Sequence[int], int, float]
#: Per-call observer: (agent_id, step, func_id, submit_t, finish_t).
CallObserver = Callable[[int, int, int, float, float], None]


class _ClusterRun:
    """In-flight state of one dispatched cluster (one step's round).

    Holds flat cursor/end lists into the trace's call columns; every
    request's completion re-enters through the single bound method
    :meth:`_call_done`, so running a cluster allocates O(members) —
    not O(calls) — bookkeeping objects. Completion is reported either
    per member (``on_done``) or once, when the last member's chain ends
    (``on_cluster_done``) — exactly one of the two is set.
    """

    __slots__ = ("ex", "members", "step", "priority", "on_done",
                 "on_cluster_done", "left", "cur", "end", "index_of")

    def __init__(self, ex: "ChainExecutor", members: Sequence[int],
                 step: int, priority: float, cur: list[int], end: list[int],
                 on_done: Optional[TaskDone],
                 on_cluster_done: Optional[ClusterDone]) -> None:
        self.ex = ex
        self.members = members
        self.step = step
        self.priority = priority
        self.on_done = on_done
        self.on_cluster_done = on_cluster_done
        self.left = len(members)
        self.cur = cur
        self.end = end
        self.index_of = dict(zip(members, range(len(members))))

    def start(self) -> None:
        """Fires once per cluster after the per-step overhead."""
        ex = self.ex
        ins, outs, funcs = ex._columns
        step, priority, done = self.step, self.priority, self._call_done
        specs = []
        finished = []
        for aid, idx, end in zip(self.members, self.cur, self.end):
            if idx >= end:
                finished.append(aid)
                continue
            specs.append((aid, ins[idx], outs[idx], priority, done,
                          (aid, step, funcs[idx])))
        if specs:
            ex.calls_issued += len(specs)
            ex.engine.generate_batch(specs)
        for aid in finished:
            self._chain_done(aid)

    def _chain_done(self, aid: int) -> None:
        if self.on_done is not None:
            self.on_done(aid, self.step)
            return
        self.left -= 1
        if not self.left:
            self.on_cluster_done(self.step, self.members)

    def _call_done(self, request: LLMRequest) -> None:
        """One member's call finished: observe, then advance its chain."""
        ex = self.ex
        ins, outs, funcs = ex._columns
        aid = request.agent_id
        step = self.step
        i = self.index_of[aid]
        idx = self.cur[i]
        if ex.call_observer is not None:
            ex.call_observer(aid, step, funcs[idx], request.submit_time,
                             ex.kernel.now)
        idx += 1
        self.cur[i] = idx
        if idx < self.end[i]:
            ex.calls_issued += 1
            ex.engine.generate(ins[idx], outs[idx], self.priority,
                               self._call_done, (aid, step, funcs[idx]),
                               aid)
            return
        if self.on_done is not None:
            self.on_done(aid, step)
            return
        self.left -= 1
        if not self.left:
            self.on_cluster_done(step, self.members)


class ChainExecutor:
    """Runs agent-step call chains against the serving engine."""

    def __init__(self, kernel: Kernel, engine: ServingEngine, trace: Trace,
                 overhead: OverheadConfig,
                 call_observer: Optional[CallObserver] = None) -> None:
        self.kernel = kernel
        self.engine = engine
        self.trace = trace
        self.overhead = overhead
        self.call_observer = call_observer
        #: Total LLM calls issued (for completeness accounting).
        self.calls_issued = 0
        #: ``(call_in, call_out, call_func)`` as memoryviews: a call's
        #: fields read as Python ints, one subscript each, with no copy
        #: of the trace's columns.
        self._columns = (memoryview(trace.call_in),
                         memoryview(trace.call_out),
                         memoryview(trace.call_func))

    def run_round(self, launches: Sequence[Launch],
                  on_cluster_done: ClusterDone) -> None:
        """Start every cluster of one dispatch round.

        ``launches`` is ``(members, step, priority)`` per cluster, in
        launch order; ``on_cluster_done(step, members)`` fires once per
        cluster when its last member's chain completes. Equivalent —
        same engine submission order, same finish times — to one
        :meth:`run_cluster` per launch issued back to back, at one
        chain lookup and one kernel event for the whole round: those
        per-cluster start events would sit at the same instant with
        consecutive sequence numbers, so nothing can run between them.
        """
        if len(launches) == 1:
            # Nothing to fold: a one-cluster round is a cluster run.
            members, step, priority = launches[0]
            self.run_cluster(members, step, priority,
                             on_cluster_done=on_cluster_done)
            return
        agents: list[int] = []
        steps: list[int] = []
        for members, step, _ in launches:
            agents += members
            steps += [step] * len(members)
        starts, ends = self.trace.chain_bounds(agents, steps)
        cur = starts.tolist()
        end = ends.tolist()
        self._pin_callers(agents, cur, end)
        self.kernel.call_in(self.overhead.agent_step, self._start_round,
                            launches, cur, end, on_cluster_done)

    def _start_round(self, launches: Sequence[Launch], cur: list[int],
                     end: list[int], on_cluster_done: ClusterDone) -> None:
        """The round's one start event: walk its clusters in launch order."""
        lo = 0
        for members, step, priority in launches:
            hi = lo + len(members)
            _ClusterRun(self, members, step, priority, cur[lo:hi],
                        end[lo:hi], None, on_cluster_done).start()
            lo = hi

    def run_cluster(self, members: Sequence[int], step: int, priority: float,
                    on_done: Optional[TaskDone] = None,
                    on_cluster_done: Optional[ClusterDone] = None) -> None:
        """Start every ``(aid, step)`` task of a dispatched cluster.

        ``on_done`` fires once per member as its chain completes — or,
        given instead, ``on_cluster_done`` once when the last one does.
        The calling members' retained KV is pinned immediately (see
        :meth:`_pin_callers`).
        """
        starts, ends = self.trace.chain_bounds(members, step)
        cur = starts.tolist()
        end = ends.tolist()
        run = _ClusterRun(self, members, step, priority, cur, end, on_done,
                          on_cluster_done)
        self._pin_callers(members, cur, end)
        self.kernel.call_in(self.overhead.agent_step, run.start)

    def _pin_callers(self, members: Sequence[int], cur: list[int],
                     end: list[int]) -> None:
        """Pin the retained KV of the members whose chain holds a call:
        those calls are imminent. A call-free member's segment stays an
        eviction candidate (a pin clears only on a hit or a forced
        eviction)."""
        self.engine.prefetch([aid for aid, lo, hi in zip(members, cur, end)
                              if lo < hi])
