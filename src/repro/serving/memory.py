"""KV-cache memory accounting for one replica.

Follows the reservation discipline of paged-attention engines in replay
mode: because the output length of every request is known (``ignore_eos``),
the full ``prompt + output`` token footprint is reserved at admission, so
no running request can be preempted by an out-of-memory condition
mid-generation. Admission is head-of-line: if the next request does not
fit, the replica waits for completions (matching vLLM/SGLang's FCFS
waiting-queue behaviour).

On top of the hard reservations sits an optional *retention* layer for
agent-simulation workloads: when a request finishes, its KV pages can be
kept as an idle per-agent segment instead of being freed, so the agent's
next call prefills only the prompt delta. Retained segments are always
evictable — they never block admission — and the eviction order is the
policy under test:

* ``lru`` evicts the segment idle the longest (what a generic serving
  stack would do);
* ``distance`` evicts the agent whose next LLM call is predicted to be
  furthest away in virtual time — the *invocation distance* that the
  OOO scheduler's dependency graph already computes from pair wake
  steps (ScaleSim's signal, driven here by AI Metropolis's graph).

``none`` (the default) disables retention entirely and reproduces the
seed engine's behaviour bit-for-bit.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..errors import CapacityError, ServingError
from .request import LLMRequest

#: Recognized retention policies.
KV_POLICIES = ("none", "lru", "distance")

#: Maps an agent id to its predicted steps-until-next-dispatch.
DistanceFn = Callable[[int], float]


class _Segment:
    """One agent's idle KV pages kept warm between calls."""

    __slots__ = ("agent_id", "tokens", "last_use", "pinned")

    def __init__(self, agent_id: int, tokens: int, last_use: float) -> None:
        self.agent_id = agent_id
        self.tokens = tokens
        self.last_use = last_use
        #: Pinned segments belong to agents the scheduler just
        #: dispatched (prefetch); they are evicted only under duress.
        self.pinned = False


class KVCacheManager:
    """Token-granular KV cache tracker: reservations + retained segments.

    Invariant: ``reserved_tokens + retained_tokens <= capacity_tokens``.
    Reservations are hard (running requests); retained segments are soft
    and evicted on demand, so :meth:`fits` ignores them — admission
    semantics are identical to a retention-free cache.
    """

    def __init__(self, capacity_tokens: int, policy: str = "none",
                 distance_fn: Optional[DistanceFn] = None) -> None:
        if capacity_tokens <= 0:
            raise CapacityError(
                f"replica has no KV capacity ({capacity_tokens} tokens); "
                "model does not leave room for cache on this hardware")
        if policy not in KV_POLICIES:
            raise ServingError(
                f"unknown KV retention policy {policy!r}; "
                f"expected one of {KV_POLICIES}")
        self.capacity_tokens = int(capacity_tokens)
        self.policy = policy
        self.distance_fn = distance_fn
        self.reserved_tokens = 0
        self._reservations: dict[int, int] = {}
        #: agent_id -> idle segment (insertion-ordered).
        self._retained: dict[int, _Segment] = {}
        self.retained_tokens = 0
        # -- counters (exposed via :meth:`stats`) --
        self.hits = 0
        self.misses = 0
        self.hit_tokens = 0
        self.evictions = 0
        #: Evictions that had to sacrifice a pinned (just-dispatched)
        #: segment because nothing unpinned was left.
        self.forced_evictions = 0
        self.retain_rejects = 0
        self.prefetch_pins = 0

    # -- admission (unchanged semantics) --------------------------------

    def fits(self, request: LLMRequest) -> bool:
        """Whether ``request`` can be admitted right now.

        Retained segments do not count against admission: they are
        evicted as needed inside :meth:`reserve`.
        """
        return self.reserved_tokens + request.total_tokens <= self.capacity_tokens

    def check_feasible(self, request: LLMRequest) -> None:
        """Raise if ``request`` could never fit even on an idle replica."""
        if request.total_tokens > self.capacity_tokens:
            raise CapacityError(
                f"request {request.request_id} needs {request.total_tokens} "
                f"KV tokens, capacity is {self.capacity_tokens}")

    def reserve(self, request: LLMRequest) -> int:
        """Reserve the request's full footprint; return warm prompt tokens.

        If the issuing agent has a retained segment it is consumed
        (hit): up to ``prompt_tokens`` of it count as already-cached
        prefill. Retained segments of *other* agents are evicted as
        needed to honour the capacity invariant.
        """
        total = request.total_tokens
        if self.reserved_tokens + total > self.capacity_tokens:
            raise CapacityError(
                f"admitting request {request.request_id} would exceed "
                f"KV capacity")
        rid = request.request_id
        if rid in self._reservations:
            raise CapacityError(f"request {rid} already reserved")
        cached = 0
        if self.policy != "none" and request.agent_id >= 0:
            seg = self._retained.pop(request.agent_id, None)
            if seg is not None:
                self.retained_tokens -= seg.tokens
                cached = min(seg.tokens, request.prompt_tokens)
                self.hits += 1
                self.hit_tokens += cached
            else:
                self.misses += 1
        self._reservations[rid] = total
        self.reserved_tokens += total
        budget = self.capacity_tokens - self.reserved_tokens
        if self.retained_tokens > budget:
            self._evict_down_to(budget)
        return cached

    def release(self, request: LLMRequest) -> None:
        tokens = self._reservations.pop(request.request_id, None)
        if tokens is None:
            raise CapacityError(
                f"request {request.request_id} was not reserved")
        self.reserved_tokens -= tokens

    # -- retention -------------------------------------------------------

    def has_retained(self, agent_id: int) -> bool:
        return agent_id in self._retained

    def retain(self, agent_id: int, tokens: int, now: float) -> bool:
        """Keep ``tokens`` KV pages warm for ``agent_id`` after a finish.

        Room is made only by evicting segments that score strictly
        worse under the active policy than the candidate would; if that
        is not enough the candidate is rejected (counted), never
        force-fitted.
        """
        if self.policy == "none" or agent_id < 0 or tokens <= 0:
            return False
        prev = self._retained.pop(agent_id, None)
        if prev is not None:
            self.retained_tokens -= prev.tokens
        seg = _Segment(agent_id, tokens, now)
        free = (self.capacity_tokens - self.reserved_tokens
                - self.retained_tokens)
        while tokens > free:
            victim = self._pick_victim(worse_than=seg)
            if victim is None:
                self.retain_rejects += 1
                return False
            self._evict(victim)
            free = (self.capacity_tokens - self.reserved_tokens
                    - self.retained_tokens)
        self._retained[agent_id] = seg
        self.retained_tokens += tokens
        return True

    def pin(self, agent_ids: Iterable[int]) -> int:
        """Pin retained segments of agents about to be dispatched.

        The scheduler calls this when it launches a cluster: those
        agents' next calls are imminent (invocation distance ~0), so
        their warm KV should survive until the hit. Returns the number
        of segments newly pinned.
        """
        pinned = 0
        for aid in agent_ids:
            seg = self._retained.get(aid)
            if seg is not None and not seg.pinned:
                seg.pinned = True
                self.prefetch_pins += 1
                pinned += 1
        return pinned

    # -- eviction --------------------------------------------------------

    def _distance(self, agent_id: int) -> float:
        if self.distance_fn is None:
            return 0.0
        return self.distance_fn(agent_id)

    def _score(self, seg: _Segment) -> tuple[float, float]:
        """Eviction key — the *largest* score is evicted first."""
        if self.policy == "distance":
            # Furthest next invocation goes first; LRU breaks ties.
            return (self._distance(seg.agent_id), -seg.last_use)
        # LRU: oldest last_use goes first.
        return (-seg.last_use, 0.0)

    def _pick_victim(self, worse_than: Optional[_Segment] = None):
        """Best eviction candidate, or ``None`` if nothing qualifies.

        Unpinned segments are considered first; pinned segments only
        when no unpinned one exists (a *forced* eviction). When
        ``worse_than`` is given, only segments scoring strictly worse
        than it qualify — retention never displaces better-placed KV.
        """
        if not self._retained:
            return None
        unpinned = [s for s in self._retained.values() if not s.pinned]
        pool = unpinned or list(self._retained.values())
        victim = max(pool, key=self._score)
        if worse_than is not None and not (
                self._score(victim) > self._score(worse_than)):
            return None
        return victim

    def _evict(self, seg: _Segment) -> None:
        del self._retained[seg.agent_id]
        self.retained_tokens -= seg.tokens
        self.evictions += 1
        if seg.pinned:
            self.forced_evictions += 1

    def drop_all_retained(self) -> int:
        """Blackout hook: lose every retained segment; return tokens lost.

        Models a replica crash — soft (retained) KV is gone, so every
        sticky-routed agent re-prefills cold on its next call. Counted
        separately from policy evictions: losing cache to a crash says
        nothing about the retention policy's quality.
        """
        lost = self.retained_tokens
        self._retained.clear()
        self.retained_tokens = 0
        return lost

    def _evict_down_to(self, budget: int) -> None:
        """Shrink retained footprint to at most ``budget`` tokens."""
        while self.retained_tokens > budget:
            victim = self._pick_victim()
            if victim is None:  # pragma: no cover - invariant guard
                raise CapacityError("retained KV exceeds budget with "
                                    "nothing evictable")
            self._evict(victim)

    # -- reporting -------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Counters for the bench report (per replica, summed upstream)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_tokens": self.hit_tokens,
            "evictions": self.evictions,
            "forced_evictions": self.forced_evictions,
            "retain_rejects": self.retain_rejects,
            "prefetch_pins": self.prefetch_pins,
            "retained_tokens": self.retained_tokens,
        }
