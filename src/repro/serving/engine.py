"""Data-parallel serving engine: router + replicas + metrics.

Mirrors the deployment shapes of §4.1: N data-parallel replicas, each a
tensor-parallel group (e.g. 8 L4s = DP8 for Llama-3-8B; 8 A100s = DP2xTP4
for Llama-3-70B; DP4xTP2 for Mixtral-8x7B). Requests are routed to the
replica with the fewest outstanding requests (least-loaded, round-robin on
ties). When KV retention is on, routing is *sticky*: an agent whose warm
KV segment lives on some replica is routed back to it, so the retained
pages actually get hit.

The engine is scheduler-aware: drivers install a *distance provider*
(:meth:`set_distance_provider`) mapping agent id -> predicted steps until
the agent's next LLM call, which the per-replica
:class:`~repro.serving.memory.KVCacheManager` uses as its eviction key,
and hand whole dispatched clusters over in one
:meth:`generate_batch` / :meth:`prefetch` call per round.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from ..config import ServingConfig
from ..devent import Kernel
from ..errors import ServingError
from .metrics import EngineMetrics
from .perfmodel import PerfModel
from .profiles import get_gpu, get_model
from .replica import IterationReplica
from .request import LLMRequest

#: One cluster-batch entry: (agent_id, prompt, output, priority,
#: on_complete, context).
BatchSpec = tuple


class ServingEngine:
    """The simulated serving deployment seen by scheduler drivers."""

    def __init__(self, kernel: Kernel, config: ServingConfig) -> None:
        self.kernel = kernel
        self.config = config
        self.model = get_model(config.model)
        self.gpu = get_gpu(config.gpu)
        self.perf = PerfModel(
            model=self.model, gpu=self.gpu, tp=config.tp,
            kv_memory_fraction=config.kv_memory_fraction)
        self.metrics = EngineMetrics()
        self._distance_provider: Optional[Callable[[int], float]] = None
        self.replicas = [self._new_replica(i) for i in range(config.dp)]
        self._rr = 0
        self._id_counter = 0
        # Blackout accounting: counters of dead replicas are carried so
        # engine-level stats span the whole run, not just the survivors.
        self._carry_busy_time = 0.0
        self._carry_kv_stats: dict[str, int] = {}
        self.replica_blackouts = 0
        self.rerouted_requests = 0
        self.lost_retained_tokens = 0

    # -- scheduler wiring -------------------------------------------------

    def set_distance_provider(self,
                              fn: Optional[Callable[[int], float]]) -> None:
        """Install the scheduler's invocation-distance signal.

        ``fn(agent_id)`` returns the predicted number of virtual steps
        until that agent's next LLM dispatch (0 = running/dispatchable
        now). The KV managers consult it lazily at eviction time, so
        the values are always current.
        """
        self._distance_provider = fn

    def _agent_distance(self, agent_id: int) -> float:
        if self._distance_provider is None:
            return 0.0
        return self._distance_provider(agent_id)

    # -- public API -------------------------------------------------------

    def submit(self, request: LLMRequest) -> None:
        """Route a request (sticky to retained KV, else least-loaded)."""
        self.metrics.on_submit(self.kernel.now, request)
        replica = self._pick_replica(request.agent_id)
        replica.submit(request)

    def generate(self, prompt_tokens: int, output_tokens: int,
                 priority: float = 0.0,
                 on_complete: Optional[Callable[[LLMRequest], None]] = None,
                 context=None, agent_id: int = -1) -> LLMRequest:
        """Convenience wrapper building and submitting a request."""
        request = LLMRequest(
            request_id=self._next_id(), prompt_tokens=prompt_tokens,
            output_tokens=output_tokens, priority=priority,
            on_complete=on_complete, context=context, agent_id=agent_id)
        self.submit(request)
        return request

    def generate_batch(self,
                       specs: Sequence[BatchSpec]) -> list[LLMRequest]:
        """Submit one dispatch round's calls in a single engine call.

        ``specs`` is ``(agent_id, prompt, output, priority, on_complete,
        context)`` per call, in cluster member order — the whole-cluster
        handoff used by the replay/live drivers. Submission order (and
        hence arrival sequence on each replica) matches an equivalent
        sequence of :meth:`generate` calls exactly.
        """
        out = []
        for agent_id, prompt, output, priority, on_complete, context in specs:
            out.append(self.generate(
                prompt_tokens=prompt, output_tokens=output,
                priority=priority, on_complete=on_complete,
                context=context, agent_id=agent_id))
        return out

    def prefetch(self, agent_ids: Iterable[int]) -> int:
        """Pin retained KV of agents the scheduler just dispatched.

        Their calls are imminent, so their warm segments should not be
        evicted on behalf of further-away agents. No-op (returns 0)
        when retention is off.
        """
        if self.config.kv_policy == "none":
            return 0
        ids = list(agent_ids)
        return sum(replica.kv.pin(ids) for replica in self.replicas)

    def idle(self) -> bool:
        return all(r.idle() for r in self.replicas)

    @property
    def kv_capacity_tokens(self) -> int:
        return self.perf.kv_capacity_tokens

    def busy_fraction(self, makespan: float) -> float:
        """Mean replica busy-time share of the run (GPU utilization proxy)."""
        if not self.replicas:
            raise ServingError(
                "serving engine has no replicas (dp=0?); busy_fraction "
                "is undefined on an empty deployment")
        if makespan <= 0:
            return 0.0
        total = self._carry_busy_time \
            + sum(r.busy_time for r in self.replicas)
        return total / (len(self.replicas) * makespan)

    def kv_stats(self) -> dict[str, int]:
        """KV retention counters summed across replicas (dead included)."""
        totals = dict(self._carry_kv_stats)
        for replica in self.replicas:
            for key, value in replica.kv.stats().items():
                totals[key] = totals.get(key, 0) + value
        # A fresh post-blackout replica starts with zero retained
        # tokens, so the carried (pre-crash) gauge must not be summed
        # in as if those tokens were still resident.
        totals["retained_tokens"] = sum(
            r.kv.retained_tokens for r in self.replicas)
        return totals

    def fault_stats(self) -> dict[str, int]:
        """Blackout accounting for the driver's stats record."""
        return {
            "replica_blackouts": self.replica_blackouts,
            "rerouted_requests": self.rerouted_requests,
            "lost_retained_tokens": self.lost_retained_tokens,
        }

    # -- fault injection --------------------------------------------------

    def blackout_replica(self, replica_id: int) -> int:
        """Crash replica ``replica_id``; reroute its in-flight requests.

        Models a replica failure mid-run: every retained KV segment on
        the replica is lost (its sticky-routed agents re-prefill cold
        elsewhere), in-flight and queued requests are re-routed to the
        surviving replicas — re-prefilled from scratch, their reserved
        KV re-acquired at the new home — and a fresh replica object
        replaces the dead one (the recovered instance joins the DP
        group empty, as a restarted engine process would). Returns the
        number of requests rerouted.
        """
        n = len(self.replicas)
        if not 0 <= replica_id < n:
            raise ServingError(
                f"cannot blackout replica {replica_id}: deployment has "
                f"{n} replicas")
        dead = self.replicas[replica_id]
        orphans = dead.drain()
        self.lost_retained_tokens += dead.kv.drop_all_retained()
        self._carry_busy_time += dead.busy_time
        for key, value in dead.kv.stats().items():
            self._carry_kv_stats[key] = \
                self._carry_kv_stats.get(key, 0) + value
        self.replicas[replica_id] = self._new_replica(replica_id)
        self.replica_blackouts += 1
        for request in orphans:
            # Internal re-route: the request was already counted by
            # metrics.on_submit at original submission, so route
            # straight to a replica (sticky KV on the dead replica is
            # gone; survivors' retained segments still attract).
            self._pick_replica(request.agent_id).submit(request)
        self.rerouted_requests += len(orphans)
        return len(orphans)

    # -- internals -------------------------------------------------------

    def _new_replica(self, replica_id: int) -> IterationReplica:
        """An empty replica in slot ``replica_id`` of this deployment."""
        config = self.config
        return IterationReplica(
            self.kernel, self.perf, replica_id,
            priority_scheduling=config.priority_scheduling,
            max_running_requests=config.max_running_requests,
            on_request_finish=self._record_finish,
            prefix_cache_hit_rate=config.prefix_cache_hit_rate,
            kv_policy=config.kv_policy,
            distance_fn=self._agent_distance)

    def _next_id(self) -> int:
        self._id_counter += 1
        return self._id_counter

    def _pick_replica(self, agent_id: int = -1):
        n = len(self.replicas)
        if n == 0:
            raise ServingError(
                "serving engine has no replicas (dp=0?); cannot route "
                "requests on an empty deployment")
        if self.config.kv_policy != "none" and agent_id >= 0:
            for replica in self.replicas:
                if replica.kv.has_retained(agent_id):
                    return replica
        best = None
        best_key = None
        for offset in range(n):
            replica = self.replicas[(self._rr + offset) % n]
            key = replica.outstanding
            if best_key is None or key < best_key:
                best, best_key = replica, key
        self._rr = (self._rr + 1) % n
        return best

    def _record_finish(self, request: LLMRequest) -> None:
        self.metrics.on_finish(self.kernel.now, request)
