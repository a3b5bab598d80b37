"""Engine-side instrumentation.

The headline metric reproduced from the paper is *achieved parallelism*:
the time-average number of outstanding LLM requests over the execution
(§4.2 reports 0.95 / 1.94 / 3.46 for single-thread / parallel-sync /
metropolis on 8 GPUs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .request import LLMRequest


class RequestRecord(NamedTuple):
    """Immutable completion record for one request.

    A named tuple: :meth:`EngineMetrics.on_finish` builds one per
    finished request with ``tuple.__new__``, which runs no Python frame
    and keeps no per-record ``__dict__``.
    """

    request_id: int
    replica_id: int
    prompt_tokens: int
    output_tokens: int
    priority: float
    submit_time: float
    prefill_start: float
    decode_start: float
    finish_time: float

    @property
    def latency(self) -> float:
        return self.finish_time - self.submit_time

    @property
    def queue_time(self) -> float:
        return self.prefill_start - self.submit_time


_new_record = tuple.__new__


@dataclass
class EngineMetrics:
    """Aggregated over the lifetime of one :class:`ServingEngine`."""

    records: list[RequestRecord] = field(default_factory=list)
    total_prompt_tokens: int = 0
    total_output_tokens: int = 0

    _outstanding: int = 0
    _last_change: float = 0.0
    _outstanding_integral: float = 0.0
    first_submit: Optional[float] = None
    last_finish: float = 0.0

    def on_submit(self, now: float, request: LLMRequest) -> None:
        self._outstanding_integral += \
            self._outstanding * (now - self._last_change)
        self._last_change = now
        self._outstanding += 1
        if self.first_submit is None:
            self.first_submit = now

    def on_finish(self, request: LLMRequest) -> None:
        """Record ``request``, finished at its ``finish_time`` (now)."""
        now = request.finish_time
        self._outstanding_integral += \
            self._outstanding * (now - self._last_change)
        self._last_change = now
        self._outstanding -= 1
        self.total_prompt_tokens += request.prompt_tokens
        self.total_output_tokens += request.output_tokens
        self.last_finish = now
        self.records.append(_new_record(RequestRecord, (
            request.request_id, request.replica_id, request.prompt_tokens,
            request.output_tokens, request.priority, request.submit_time,
            request.prefill_start, request.decode_start, now)))

    # -- summary ----------------------------------------------------------

    @property
    def completed(self) -> int:
        return len(self.records)

    def achieved_parallelism(self, makespan: Optional[float] = None) -> float:
        """Time-average outstanding requests (§4.2's parallelism metric)."""
        if makespan is None:
            start = self.first_submit or 0.0
            makespan = self.last_finish - start
        if makespan <= 0:
            return 0.0
        return self._outstanding_integral / makespan

    def throughput_tokens_per_s(self) -> float:
        start = self.first_submit or 0.0
        span = self.last_finish - start
        if span <= 0:
            return 0.0
        return (self.total_prompt_tokens + self.total_output_tokens) / span
