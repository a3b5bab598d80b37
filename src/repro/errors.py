"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """Invalid configuration value or inconsistent combination of options."""


class SchedulingError(ReproError):
    """The scheduler reached an inconsistent state (e.g. deadlock or a
    temporal-causality violation detected at runtime)."""


class CausalityViolation(SchedulingError):
    """The §3.2 validity condition was violated between two agents.

    This is never expected to happen for the shipped schedulers; it exists
    so tests and the runtime validator can fail loudly instead of silently
    producing a wrong simulation.
    """

    def __init__(self, agent_a: int, step_a: int, agent_b: int, step_b: int,
                 distance: float, threshold: float) -> None:
        self.agent_a = agent_a
        self.step_a = step_a
        self.agent_b = agent_b
        self.step_b = step_b
        self.distance = distance
        self.threshold = threshold
        super().__init__(
            f"causality violation: agent {agent_a}@{step_a} vs agent "
            f"{agent_b}@{step_b}: dist {distance:.3f} <= required "
            f"{threshold:.3f}"
        )


class ServingError(ReproError):
    """Errors from the simulated LLM serving engine."""


class CapacityError(ServingError):
    """A request can never fit in the configured KV-cache capacity."""


class FaultError(ReproError):
    """Base class for injected or surfaced execution-layer faults."""


class TransientLLMError(FaultError):
    """A retryable LLM-call failure (timeout, connection reset...)."""


class LLMCallError(FaultError):
    """A non-retryable LLM-call failure (or a call whose bounded retry
    budget was exhausted); the worker acks failure and the controller
    aborts and redispatches the cluster."""


class TraceError(ReproError):
    """Malformed or inconsistent trace data."""


class WorldError(ReproError):
    """Invalid world-model operation (bad tile, unreachable target...)."""


class ScenarioError(ReproError):
    """Unknown scenario name, duplicate registration, or a scenario whose
    world/personas violate the invariants the schedulers rely on."""


class KernelError(ReproError):
    """Discrete-event kernel misuse (e.g. scheduling in the past)."""
