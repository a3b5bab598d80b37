"""Retry, backoff, and circuit breaking around any ``LLMClient``.

:class:`ResilientClient` is what the live engine's workers actually call:
it executes the wrapped client's ``complete`` under the
:class:`~repro.config.FaultPolicy` — bounded retries with seeded jittered
exponential backoff for transient failures and timeouts, a
:class:`CircuitBreaker` tracking consecutive primary failures, and a
fallback client that serves degraded completions while the breaker is
open. Hard failures (:class:`~repro.errors.LLMCallError`) propagate to
the worker, whose failure ack triggers the controller's
abort-and-redispatch path.
"""

from __future__ import annotations

import random
import threading
import time

from ..config import FaultPolicy
from ..errors import LLMCallError, TransientLLMError


class FallbackLLMClient:
    """Deterministic canned completions — the degraded-mode plan.

    Scenario subclasses can provide a richer plan via
    ``Scenario.fallback_client``; this default returns a fixed string,
    which is sufficient for behavior programs that act on world state
    rather than completion text.
    """

    def __init__(self, text: str = "fallback: hold current plan") -> None:
        self.text = text
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, prompt: str, max_tokens: int,
                 priority: float = 0.0) -> str:
        with self._lock:
            self.calls += 1
        return self.text


class CircuitBreaker:
    """Consecutive-failure breaker with a half-open trial state.

    ``threshold`` consecutive failures open the circuit; after
    ``cooldown`` seconds one trial call is allowed through (half-open) —
    success closes the circuit, failure re-opens it for another cooldown.
    Thread-safe; transition counts feed :class:`FaultStats`.
    """

    def __init__(self, threshold: int, cooldown: float) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self._failures = 0
        self._opened_at: float | None = None
        self._trial_in_flight = False
        self._lock = threading.Lock()
        self.opens = 0
        self.closes = 0

    def allow_call(self) -> bool:
        """Whether the primary client may be tried right now."""
        with self._lock:
            if self._opened_at is None:
                return True
            if self._trial_in_flight:
                return False
            if time.monotonic() - self._opened_at >= self.cooldown:
                self._trial_in_flight = True  # half-open: one trial
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            if self._opened_at is not None:
                self._opened_at = None
                self.closes += 1
            self._trial_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._trial_in_flight = False
            if self._opened_at is None and self._failures >= self.threshold:
                self._opened_at = time.monotonic()
                self.opens += 1
            elif self._opened_at is not None:
                # A failed half-open trial restarts the cooldown clock.
                self._opened_at = time.monotonic()


class ResilientClient:
    """Policy-enforcing wrapper the live engine's workers call.

    Per call: if the breaker is open (and not due for a trial), serve the
    fallback immediately (a *degraded completion*). Otherwise try the
    primary up to ``1 + max_call_retries`` times, sleeping a seeded
    jittered exponential backoff between attempts; only
    :class:`TransientLLMError` and over-budget calls (timeouts) are
    retried. A hard failure or an exhausted budget records a breaker
    failure and raises :class:`LLMCallError` to the worker.
    """

    def __init__(self, inner, policy: FaultPolicy,
                 fallback=None) -> None:
        self.inner = inner
        self.policy = policy
        self.fallback = fallback if fallback is not None \
            else FallbackLLMClient()
        self.breaker = CircuitBreaker(policy.breaker_threshold,
                                      policy.breaker_cooldown)
        self._rng = random.Random(policy.seed)
        self._lock = threading.Lock()
        self.retries = 0
        self.failures = 0
        self.timeouts = 0
        self.degraded = 0

    # -- counters (thread-safe) -----------------------------------------

    def _bump(self, attr: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, attr, getattr(self, attr) + amount)

    def _backoff(self, attempt: int) -> None:
        policy = self.policy
        delay = min(policy.backoff_max,
                    policy.backoff_base * policy.backoff_factor ** attempt)
        with self._lock:
            jitter = 1.0 + self._rng.random() * policy.backoff_jitter
        time.sleep(delay * jitter)

    # -- the client surface ----------------------------------------------

    def complete(self, prompt: str, max_tokens: int,
                 priority: float = 0.0) -> str:
        if not self.breaker.allow_call():
            self._bump("degraded")
            return self.fallback.complete(prompt, max_tokens,
                                          priority=priority)
        policy = self.policy
        attempts = 1 + policy.max_call_retries
        last_exc: Exception | None = None
        for attempt in range(attempts):
            if attempt > 0:
                self._bump("retries")
                self._backoff(attempt - 1)
            started = time.monotonic()
            try:
                result = self.inner.complete(prompt, max_tokens,
                                             priority=priority)
            except TransientLLMError as exc:
                last_exc = exc
                continue
            except LLMCallError as exc:
                self._bump("failures")
                self.breaker.record_failure()
                raise
            if time.monotonic() - started > policy.call_timeout:
                # The call completed but blew its budget: treat it like a
                # transient failure (a real deployment would have
                # abandoned it) and retry.
                self._bump("timeouts")
                last_exc = TransientLLMError(
                    f"LLM call exceeded call_timeout="
                    f"{policy.call_timeout}s")
                continue
            self.breaker.record_success()
            return result
        self._bump("failures")
        self.breaker.record_failure()
        raise LLMCallError(
            f"LLM call failed after {attempts} attempts: "
            f"{last_exc!r}") from last_exc
