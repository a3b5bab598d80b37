"""Fault accounting shared by the live engine and the chaos bench."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FaultStats:
    """Counters for every fault-handling path a run exercised.

    Attached to :class:`~repro.live.engine.LiveResult` (live runs) and
    folded into ``DriverStats.extra`` (replay runs, serving-side faults
    only). The chaos gate asserts the relevant counters are non-zero per
    schedule — an injected fault that no counter saw means the plumbing
    silently dropped it.
    """

    #: LLM-call retries that were attempted (transient errors/timeouts).
    llm_retries: int = 0
    #: Calls that exhausted their retry budget or failed hard.
    llm_failures: int = 0
    #: Calls whose wall-clock exceeded the policy's ``call_timeout``.
    llm_timeouts: int = 0
    #: Completions served by the fallback client (breaker open or the
    #: cluster's redispatch budget exhausted).
    degraded_completions: int = 0
    #: Clusters rolled back via ``abort_running`` after a failure ack.
    aborted_clusters: int = 0
    #: Cluster dispatches that were retries of an aborted cluster.
    redispatches: int = 0
    #: Circuit-breaker transitions.
    breaker_opens: int = 0
    breaker_closes: int = 0
    #: Always 0: the KV store's write batches cannot conflict. Kept
    #: because ``benchmarks/e2e/workloads.py`` adds it to
    #: ``faults.retries``.
    tx_retries: int = 0
    #: Faults the chaos layer injected, by kind (empty without chaos).
    injected: dict[str, int] = field(default_factory=dict)
    #: Worker threads abandoned at shutdown (stuck past the join grace).
    leaked_workers: int = 0
    #: Serving-side: replica blackouts, requests rerouted + re-prefilled,
    #: retained KV tokens lost.
    replica_blackouts: int = 0
    rerouted_requests: int = 0
    lost_retained_tokens: int = 0

    def as_dict(self) -> dict:
        """Flat dict for JSON reports and ``DriverStats.extra``."""
        out = {
            "llm_retries": self.llm_retries,
            "llm_failures": self.llm_failures,
            "llm_timeouts": self.llm_timeouts,
            "degraded_completions": self.degraded_completions,
            "aborted_clusters": self.aborted_clusters,
            "redispatches": self.redispatches,
            "breaker_opens": self.breaker_opens,
            "breaker_closes": self.breaker_closes,
            "tx_retries": self.tx_retries,
            "leaked_workers": self.leaked_workers,
            "replica_blackouts": self.replica_blackouts,
            "rerouted_requests": self.rerouted_requests,
            "lost_retained_tokens": self.lost_retained_tokens,
        }
        for kind, count in sorted(self.injected.items()):
            out[f"injected_{kind}"] = count
        return out

    @property
    def any_faults(self) -> bool:
        """Whether any fault path (injected or organic) fired at all."""
        return any(v for v in self.as_dict().values())
