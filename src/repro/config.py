"""Configuration objects shared across the library.

The defaults mirror the GenAgent / SmallVille setup the paper evaluates:
10-second simulation steps, a perception radius of 4 grid units and a
movement/information-propagation speed of 1 grid unit per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal

from .errors import ConfigError

#: Simulated seconds represented by one simulation step (GenAgent uses 10s).
SECONDS_PER_STEP = 10
#: Steps in one simulated day.
STEPS_PER_DAY = 24 * 3600 // SECONDS_PER_STEP  # 8640
#: Steps in one simulated hour.
STEPS_PER_HOUR = 3600 // SECONDS_PER_STEP  # 360


@dataclass(frozen=True)
class DependencyConfig:
    """Parameters of the §3.2 dependency rules.

    Attributes
    ----------
    radius_p:
        Perception radius — how far an agent can read the world.
    max_vel:
        Maximum movement / information-propagation speed per step — how far
        an agent's writes can reach in one step.
    metric:
        Distance metric used by the rules. ``euclidean`` matches the paper;
        ``chebyshev``/``manhattan`` suit grid worlds; ``graph`` enables the
        §6 non-Euclidean (social network) extension via a custom Space.
    """

    radius_p: float = 4.0
    max_vel: float = 1.0
    metric: Literal["euclidean", "chebyshev", "manhattan", "graph"] = "euclidean"

    def __post_init__(self) -> None:
        if self.radius_p < 0:
            raise ConfigError(f"radius_p must be >= 0, got {self.radius_p}")
        if self.max_vel <= 0:
            raise ConfigError(f"max_vel must be > 0, got {self.max_vel}")

    @property
    def couple_threshold(self) -> float:
        """Distance at or below which two same-step agents are coupled."""
        return self.radius_p + self.max_vel

    def block_threshold(self, step_gap: int) -> float:
        """Distance at or below which a leader is blocked by a laggard.

        ``step_gap`` is ``step_leader - step_laggard`` and must be >= 0.
        """
        if step_gap < 0:
            raise ConfigError(f"step_gap must be >= 0, got {step_gap}")
        return (step_gap + 1) * self.max_vel + self.radius_p


@dataclass(frozen=True)
class OverheadConfig:
    """Non-LLM costs charged in virtual time.

    The paper measures ~95% of execution in LLM inference for the original
    implementation; these constants model the remaining engine work.
    """

    #: Seconds of world/agent bookkeeping per agent-step (perceive, move...).
    agent_step: float = 0.015
    #: Seconds for a cluster commit (conflict resolution + DB transaction).
    cluster_commit: float = 0.002
    #: Seconds of controller work per scheduling decision (clustering etc.).
    controller_dispatch: float = 0.0005
    #: Extra per-step serialization cost for the single-thread baseline
    #: (the original GenAgent implementation does everything inline).
    single_thread_step: float = 0.05


@dataclass(frozen=True)
class FaultPolicy:
    """Fault-tolerance knobs for the live execution layers.

    Consumed by :class:`repro.faults.ResilientClient` (per-call retry,
    backoff, circuit breaker), by the live engine's redispatch loop and
    no-progress watchdog, and by the chaos bench. All randomness (backoff
    jitter) is seeded so failure handling is reproducible.
    """

    #: Per-LLM-call wall-clock budget in seconds; a call that comes back
    #: slower counts as a (retryable) timeout failure.
    call_timeout: float = 30.0
    #: Retries per LLM call after the first attempt (transient failures
    #: and timeouts only; hard failures are never retried in-place).
    max_call_retries: int = 3
    #: Seeded exponential backoff between call retries:
    #: ``min(backoff_max, backoff_base * backoff_factor**attempt)``
    #: scaled by ``1 + U(0, backoff_jitter)``.
    backoff_base: float = 0.005
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    backoff_max: float = 0.25
    #: Consecutive primary-client failures that open the circuit breaker.
    breaker_threshold: int = 5
    #: Seconds the breaker stays open before one half-open trial call.
    breaker_cooldown: float = 1.0
    #: Redispatches per failed cluster before it degrades to the
    #: fallback plan (one final dispatch on the fallback client).
    max_redispatches: int = 3
    #: Seconds without any worker ack (while work is in flight) before
    #: the watchdog raises a diagnostic ``SchedulingError``.
    watchdog_timeout: float = 60.0
    #: Seconds to wait for each worker thread at shutdown before
    #: abandoning it (daemon threads; counted in the fault stats).
    worker_join_grace: float = 5.0
    #: Seed for the backoff-jitter stream.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.call_timeout <= 0:
            raise ConfigError(
                f"call_timeout must be > 0, got {self.call_timeout}")
        if self.max_call_retries < 0:
            raise ConfigError(
                f"max_call_retries must be >= 0, got "
                f"{self.max_call_retries}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigError("backoff_base/backoff_max must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.backoff_jitter < 0:
            raise ConfigError(
                f"backoff_jitter must be >= 0, got {self.backoff_jitter}")
        if self.breaker_threshold < 1:
            raise ConfigError(
                f"breaker_threshold must be >= 1, got "
                f"{self.breaker_threshold}")
        if self.breaker_cooldown < 0:
            raise ConfigError(
                f"breaker_cooldown must be >= 0, got "
                f"{self.breaker_cooldown}")
        if self.max_redispatches < 0:
            raise ConfigError(
                f"max_redispatches must be >= 0, got "
                f"{self.max_redispatches}")
        if self.watchdog_timeout <= 0:
            raise ConfigError(
                f"watchdog_timeout must be > 0, got "
                f"{self.watchdog_timeout}")
        if self.worker_join_grace < 0:
            raise ConfigError(
                f"worker_join_grace must be >= 0, got "
                f"{self.worker_join_grace}")


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduler selection and options for a replay run."""

    policy: Literal[
        "single-thread", "parallel-sync", "metropolis", "oracle",
        "no-dependency",
    ] = "metropolis"
    #: Registered scenario (see :mod:`repro.scenarios`) this run's
    #: workload comes from; reported as ``SimulationResult.scenario``.
    #: Empty means "take it from the trace metadata" — set it explicitly
    #: when the workload label should override the trace's (e.g. a
    #: synthetic trace standing in for a scenario).
    scenario: str = ""
    #: Step-priority scheduling (§3.5). Applies to metropolis and oracle.
    priority: bool = True
    #: Number of logical worker slots. ``0`` means unbounded (the DES does
    #: not need CPU limits; live mode uses real threads).
    num_workers: int = 0
    #: Validate the §3.2 condition, and the commit's coupling candidates
    #: against a full join, at every state change (slow; for tests).
    validate_causality: bool = False
    #: §6 hybrid/interactive deployment: agents whose tasks (and clusters)
    #: are latency-critical — e.g. the ones a player interacts with. Their
    #: LLM requests and dispatches preempt step-priority ordering, and
    #: their per-step latency is reported in the driver stats.
    interactive_agents: tuple[int, ...] = ()
    #: Set False to *measure* interactive agents' step latency without
    #: giving them preemptive priority (the ablation baseline).
    interactive_boost: bool = True
    #: Region count for the worker pool (``parallel_workers >= 2``): the
    #: planner splits the map into at most this many provably-independent
    #: shards and packs them onto the workers (see
    #: :mod:`repro.core.sharding`). ``0``/``1`` means one shard per
    #: worker. An in-process replay ignores it: it always runs one
    #: dependency graph.
    shards: int = 0
    #: Multiprocess controller (replay mode): run this many persistent
    #: worker processes over a shared-memory copy of the trace position
    #: store. ``0``/``1`` keeps the in-process controller; with ``>= 2``
    #: the driver plans ``shards`` regions, assigns whole shards to
    #: workers, lets each worker run one dependency graph over its
    #: shards' agents, and merges the workers' ledgers into one
    #: :class:`~repro.core.baselines.DriverStats`. Falls back loudly
    #: (``extra["parallel_fallback"]`` + a logged warning) to the
    #: in-process replay when the workload cannot be split or the
    #: platform lacks POSIX shared memory. Results are state-identical
    #: either way (see :mod:`repro.core.parallel`).
    parallel_workers: int = 0
    #: Fault-tolerance policy for the live engine. ``None`` runs under
    #: the default :class:`FaultPolicy` (hardening is always on; set an
    #: explicit policy to tune budgets or tighten the watchdog).
    faults: "FaultPolicy | None" = None
    dependency: DependencyConfig = field(default_factory=DependencyConfig)
    overhead: OverheadConfig = field(default_factory=OverheadConfig)

    def with_policy(self, policy: str, **kw) -> "SchedulerConfig":
        return replace(self, policy=policy, **kw)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ServingConfig:
    """Simulated serving engine deployment shape."""

    model: str = "llama3-8b"
    gpu: str = "l4"
    #: Number of data-parallel replicas.
    dp: int = 1
    #: Tensor-parallel degree within each replica.
    tp: int = 1
    #: Fraction of post-weights GPU memory usable for KV cache.
    kv_memory_fraction: float = 0.9
    #: Cap on requests decoded concurrently per replica (engine limit).
    max_running_requests: int = 256
    #: Fraction of prompt tokens served from the common-prefix cache
    #: (SGLang's RadixAttention). The paper benchmarks with the cache
    #: *off* for stability and notes ~20% throughput gain when on; set
    #: e.g. 0.5 to model it (GenAgent prompts share persona/world
    #: preambles). Only prefill compute is discounted; KV reservations
    #: stay conservative.
    prefix_cache_hit_rate: float = 0.0
    #: Idle-KV retention policy between an agent's calls. ``none``
    #: frees KV at finish (seed behaviour); ``lru`` keeps per-agent
    #: segments and evicts the longest-idle; ``distance`` evicts the
    #: agent whose next LLM call is furthest in virtual time, using the
    #: scheduler's invocation-distance signal (ScaleSim-style: the
    #: replay trace's steps to each agent's next call).
    kv_policy: Literal["none", "lru", "distance"] = "none"

    def __post_init__(self) -> None:
        if self.kv_policy not in ("none", "lru", "distance"):
            raise ConfigError(
                f"kv_policy must be none|lru|distance, got "
                f"{self.kv_policy!r}")
        if self.dp < 1:
            raise ConfigError(f"dp must be >= 1, got {self.dp}")
        if self.tp < 1:
            raise ConfigError(f"tp must be >= 1, got {self.tp}")
        if not 0.0 < self.kv_memory_fraction <= 1.0:
            raise ConfigError(
                f"kv_memory_fraction must be in (0, 1], got "
                f"{self.kv_memory_fraction}")
        if self.max_running_requests < 1:
            raise ConfigError("max_running_requests must be >= 1")
        if not 0.0 <= self.prefix_cache_hit_rate < 1.0:
            raise ConfigError(
                f"prefix_cache_hit_rate must be in [0, 1), got "
                f"{self.prefix_cache_hit_rate}")
