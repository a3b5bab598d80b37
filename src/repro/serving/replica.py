"""Continuous-batching replica simulation.

:class:`IterationReplica` models one SGLang engine process:

* a waiting queue ordered by ``(priority, arrival)`` — or pure FCFS when
  priority scheduling is off (Table 1 ablation);
* head-of-line admission gated by KV reservation and a running cap;
* prefill bursts that briefly stall the decode batch (non-chunked
  prefill, as in the SGLang version the paper uses);
* iteration-level (continuous) batching for decode.

It is exact under the performance model: it sums every decode
iteration's latency in order (arithmetic per iteration) but schedules
one kernel event per batch *composition change* — a finish, or an
arrival the queue can admit — because between two changes the batch
size is constant and the boundaries up to the next finish can be planned
at once. Its floats are those of a one-event-per-iteration engine
(``tests/helpers.py::PerIterationReplica``, the oracle). A planned
boundary gets its kernel sequence number at planning time, so events of
*different* replicas at the bit-identical instant may swap order; that
takes exactly symmetric clocks (identical prompts at one instant), which
generated traces never have. ``busy_time`` is folded when a window ends:
exact when the replica is idle, at every batch change and after
:meth:`~IterationReplica.drain`; in between it lags by the window in
flight.

What one call costs on the host is the point of its layout: a request's
admission, prefill end and finish each run in one method with every
helper inlined (``fits``, the prefill duration, the finish bookkeeping),
reading the kernel clock and the request's fields once. The oracle
carries its own copy of the queueing and admission code, so it does not
check this path against itself.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush
from typing import Callable, Optional

from ..devent import Kernel
from .memory import KVCacheManager
from .perfmodel import PerfModel
from .request import LLMRequest, RequestState

#: Most decode iterations :class:`IterationReplica` plans ahead; a window
#: that ends without a finish just plans the next stretch, so planning
#: stays linear in the iterations executed however often it is cut.
_PLAN_CAP = 64

_QUEUED = RequestState.QUEUED
_PREFILL = RequestState.PREFILL
_DECODE = RequestState.DECODE
_FINISHED = RequestState.FINISHED


class IterationReplica:
    """Exact per-iteration arithmetic, one event per batch change."""

    def __init__(self, kernel: Kernel, perf: PerfModel, replica_id: int,
                 priority_scheduling: bool = True,
                 max_running_requests: int = 256,
                 on_request_finish: Optional[Callable[[LLMRequest], None]] = None,
                 prefix_cache_hit_rate: float = 0.0,
                 kv_policy: str = "none",
                 distance_fn=None,
                 ) -> None:
        self.kernel = kernel
        self.perf = perf
        self.replica_id = replica_id
        self.priority_scheduling = priority_scheduling
        self.max_running_requests = max_running_requests
        self.on_request_finish = on_request_finish
        self.prefix_cache_hit_rate = prefix_cache_hit_rate
        self.kv = KVCacheManager(perf.kv_capacity_tokens, policy=kv_policy,
                                 distance_fn=distance_fn)
        #: waiting queue: (priority or 0.0 under FCFS, arrival seq, request)
        self._waiting: list[tuple[float, int, LLMRequest]] = []
        self._arrival_seq = 0
        #: running + prefilling + waiting, used by the DP router.
        self.outstanding = 0
        self.busy_time = 0.0
        #: request in its prefill burst; tracked so a blackout recovers it
        self._prefilling: Optional[LLMRequest] = None
        #: decode batch as a finish heap: (token clock at the last
        #: token, admission seq, request)
        self._running: list[tuple[int, int, LLMRequest]] = []
        self._run_seq = 0
        #: total cached context tokens of the running batch
        self._kv_context = 0.0
        #: decode iteration time = ``_base_by_batch[B] + kv_tokens * _kvr``
        self._kvr = perf.kv_read_time_per_token()
        self._base_by_batch: dict[int, float] = {}
        #: decode iterations completed so far (the token clock)
        self._iter = 0
        #: the one pending event: a prefill end or a planned window's end
        self._event = None
        #: planned decode window: per iteration its end time and the
        #: ``busy_time`` once it is charged; both empty outside a window
        self._ends: list[float] = []
        self._busy: list[float] = []
        #: prefill is discounted by warm KV, then by the prefix cache
        self._cold_share = 1.0 - prefix_cache_hit_rate
        self._retains = self.kv.policy != "none"

    # -- queue ----------------------------------------------------------

    def submit(self, request: LLMRequest) -> None:
        kv = self.kv
        if request.total_tokens > kv.capacity_tokens:
            kv.check_feasible(request)  # raises
        now = self.kernel.now
        request.submit_time = now
        request.replica_id = self.replica_id
        self._arrival_seq += 1
        heappush(self._waiting,
                 (request.priority if self.priority_scheduling else 0.0,
                  self._arrival_seq, request))
        self.outstanding += 1
        if self._event is None:
            self._schedule_next()
            return
        # Mid-window, admission can only open up through a new queue
        # head (``fits`` and the running cap move on admit and finish
        # alone): cut the window at the end of the iteration in flight.
        # A boundary at this very instant has passed — its event was
        # scheduled an iteration before anything this instant caused.
        ends = self._ends
        if ends and len(self._running) < self.max_running_requests \
                and kv.reserved_tokens + self._waiting[0][2].total_tokens \
                <= kv.capacity_tokens:
            k = bisect_right(ends, now)
            if k < len(ends) - 1:
                self._event.cancel()
                del ends[k + 1:], self._busy[k + 1:]
                self._event = self.kernel.call_at(ends[k], self._window_done)

    def idle(self) -> bool:
        return (not self._running and not self._waiting
                and self._prefilling is None)

    # -- engine actions ---------------------------------------------------

    def _schedule_next(self) -> None:
        """Pick the next engine action and schedule its completion."""
        waiting = self._waiting
        running = self._running
        kernel = self.kernel
        if waiting and len(running) < self.max_running_requests:
            request = waiting[0][2]
            kv = self.kv
            if kv.reserved_tokens + request.total_tokens <= kv.capacity_tokens:
                # Admit the head: reserve its whole footprint, then
                # prefill what the retained KV and prefix cache miss.
                heappop(waiting)
                cached = request.cached_prompt_tokens = kv.reserve(request)
                request.state = _PREFILL
                now = kernel.now
                request.prefill_start = now
                self._prefilling = request
                duration = self.perf.prefill_time(
                    int((request.prompt_tokens - cached) * self._cold_share))
                self.busy_time += duration
                self._event = kernel.call_at(now + duration,
                                             self._prefill_done, request)
                return
        if running:
            # Plan the iterations up to the next finish: the very sums a
            # per-iteration ``call_in(decode_iteration_time(B, kv))``
            # chain evaluates, kept per boundary so a cut stays exact.
            batch = len(running)
            base = self._base_by_batch.get(batch)
            if base is None:
                base = self._base_by_batch[batch] = \
                    self.perf.decode_iteration_time(batch, 0.0)
            kvr = self._kvr
            kv, t, busy = self._kv_context, kernel.now, self.busy_time
            end, charge = self._ends.append, self._busy.append
            for _ in range(min(running[0][0] - self._iter, _PLAN_CAP)):
                duration = base + kv * kvr
                t += duration
                busy += duration
                kv += batch
                end(t)
                charge(busy)
            self._event = kernel.call_at(t, self._window_done)
            return
        self._event = None

    def _prefill_done(self, request: LLMRequest) -> None:
        """Prefill is over: ``request`` joins the decode batch."""
        self._prefilling = None
        request.state = _DECODE
        request.decode_start = self.kernel.now
        self._run_seq += 1
        heappush(self._running, (self._iter + request.output_tokens,
                                 self._run_seq, request))
        self._kv_context += request.prompt_tokens
        self._schedule_next()

    def _window_done(self) -> None:
        """Fold the planned window; finish what is due at its end.

        A finish releases the reservation, keeps the context warm for
        the agent's next call (subject to the retention policy), is
        recorded, then delivered through the kernel so the caller's
        reaction (the next call of a chain) is an ordinary event.
        """
        running = self._running
        done = len(self._ends)
        self.busy_time = self._busy[-1]
        # Token counts are integers: one ``+= B * n`` is ``n`` of ``+= B``.
        self._kv_context += len(running) * done
        self._iter = now_iter = self._iter + done
        self._ends.clear()
        self._busy.clear()
        kernel = self.kernel
        now = kernel.now
        kv = self.kv
        on_finish = self.on_request_finish
        while running and running[0][0] == now_iter:
            request = heappop(running)[2]
            tokens = request.total_tokens
            self._kv_context -= tokens
            request.state = _FINISHED
            request.finish_time = now
            kv.release(request)
            if self._retains:
                kv.retain(request.agent_id, tokens, now)
            self.outstanding -= 1
            if on_finish is not None:
                on_finish(request)
            if request.on_complete is not None:
                kernel.call_at(now, request.on_complete, request)
        self._schedule_next()

    # -- blackout ---------------------------------------------------------

    def drain(self) -> list[LLMRequest]:
        """Crash this replica: return every in-flight request, requeueable.

        Models a replica blackout. Pending kernel events are cancelled
        (a dead replica must not deliver completions), KV reservations
        are released, and every admitted request is reset to ``QUEUED``
        with its warm-prefix credit stripped — on another replica it
        re-prefills cold. Order is deterministic: admitted requests by
        id, then the waiting queue in its scheduling order.
        """
        admitted = self._drain_admitted()
        admitted.sort(key=lambda r: r.request_id)
        waiting = [heappop(self._waiting)[2] for _ in
                   range(len(self._waiting))]
        for request in admitted:
            self.kv.release(request)
            request.state = _QUEUED
            request.cached_prompt_tokens = 0
        self.outstanding = 0
        return admitted + waiting

    def _drain_admitted(self) -> list[LLMRequest]:
        """Cancel events; return admitted (prefilling+running) requests."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        if self._ends:
            # The iteration in flight is charged in full, as it would
            # have been when it started.
            k = bisect_right(self._ends, self.kernel.now)
            self.busy_time = self._busy[min(k, len(self._busy) - 1)]
            self._ends.clear()
            self._busy.clear()
        admitted = [request for _, _, request in self._running]
        self._running.clear()
        self._kv_context = 0.0
        if self._prefilling is not None:
            admitted.append(self._prefilling)
            self._prefilling = None
        return admitted


#: The frozen ``benchmarks/e2e`` span tests find the serving layer
#: through this name; the benchmark's next revision drops it.
FluidReplica = IterationReplica
