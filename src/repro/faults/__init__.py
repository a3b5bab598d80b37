"""Fault model for the execution layers (chaos injection + resilience).

The live engine assumes nothing about why an LLM call or a worker
fails — this package supplies both halves of the fault story:

* **injection** — :class:`ChaosClient` wraps any
  :class:`~repro.live.clients.LLMClient` and injects transient errors,
  hard failures, and straggler latency from a seeded
  :class:`FaultSchedule`; and
  :meth:`repro.serving.ServingEngine.blackout_replica` kills a replica
  (retained KV lost, in-flight requests rerouted and re-prefilled);
* **resilience** — :class:`ResilientClient` adds per-call timeouts,
  bounded retries with seeded exponential backoff, and a
  :class:`CircuitBreaker` that degrades to a fallback client
  (:class:`FallbackLLMClient`, or a scenario-provided plan) once the
  primary looks down; :class:`FaultStats` accounts for every exercised
  path; :func:`scheduler_diagnostics` renders the watchdog's dump.

Everything is seeded and deterministic, so the chaos CI gate can assert
bit-identical world state under injected failure.
"""

from .chaos import ChaosClient, FaultSchedule
from .diagnostics import scheduler_diagnostics
from .resilient import CircuitBreaker, FallbackLLMClient, ResilientClient
from .stats import FaultStats

__all__ = [
    "ChaosClient",
    "FaultSchedule",
    "CircuitBreaker",
    "FallbackLLMClient",
    "ResilientClient",
    "FaultStats",
    "scheduler_diagnostics",
]
