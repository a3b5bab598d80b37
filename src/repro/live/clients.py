"""LLM client protocol for live execution.

The live engine is deliberately agnostic about where completions come
from (§3.6 decouples simulation from serving): anything implementing
:class:`LLMClient` works — an OpenAI-compatible HTTP shim, a local
serving engine, or the testing clients below.
"""

from __future__ import annotations

import threading
import time
from typing import Protocol


class LLMClient(Protocol):
    """Minimal completion interface the workers call (thread-safe)."""

    def complete(self, prompt: str, max_tokens: int,
                 priority: float = 0.0) -> str:
        """Generate up to ``max_tokens`` for ``prompt``.

        ``priority`` carries the issuing agent's simulation step; clients
        backed by priority-aware servers should serve smaller values
        first (§3.5).
        """
        ...


class EchoLLMClient:
    """Returns canned text instantly — for tests and dry runs."""

    def __init__(self) -> None:
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, prompt: str, max_tokens: int,
                 priority: float = 0.0) -> str:
        with self._lock:
            self.calls += 1
        return f"ok({min(max_tokens, 16)})"


class ThrottledLLMClient:
    """Simulates a serving deployment in wall-clock time.

    Latency = base + per_token * max_tokens, with at most ``slots``
    concurrent requests (beyond that, callers queue on a semaphore) —
    a coarse stand-in for a DP deployment when demonstrating that OOO
    scheduling shortens real makespans.
    """

    def __init__(self, base_latency: float = 0.002,
                 per_token: float = 0.00002, slots: int = 8) -> None:
        self.base_latency = base_latency
        self.per_token = per_token
        self._sem = threading.Semaphore(slots)
        self._lock = threading.Lock()
        self.calls = 0
        self.busy_time = 0.0

    def complete(self, prompt: str, max_tokens: int,
                 priority: float = 0.0) -> str:
        duration = self.base_latency + self.per_token * max_tokens
        with self._sem:
            time.sleep(duration)
        with self._lock:
            self.calls += 1
            self.busy_time += duration
        return "x " * min(max_tokens, 8)
