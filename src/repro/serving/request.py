"""Request objects flowing through the simulated serving engine."""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Optional

from ..errors import ConfigError


class RequestState(Enum):
    QUEUED = "queued"
    PREFILL = "prefill"
    DECODE = "decode"
    FINISHED = "finished"


class LLMRequest:
    """One LLM call.

    In replay mode the output length is known from the trace (the paper
    pins generation length via ``ignore_eos`` for exactly this reason), so
    the engine can simulate the full lifecycle deterministically.

    ``priority`` carries the simulation step of the issuing agent; under
    priority scheduling (§3.5) smaller steps are served first.

    A slotted class with a positional ``__init__``: one is built per
    simulated call. Equality is identity (requests are unique objects).
    The token counts are fixed at construction, so ``total_tokens`` is
    stored, not recomputed on each of the engine's reads.
    """

    __slots__ = ("request_id", "prompt_tokens", "output_tokens",
                 "total_tokens", "priority", "on_complete", "context",
                 "agent_id", "submit_time", "prefill_start", "decode_start",
                 "finish_time", "state", "replica_id",
                 "cached_prompt_tokens")

    def __init__(self, request_id: int, prompt_tokens: int,
                 output_tokens: int, priority: float = 0.0,
                 on_complete: Optional[Callable[["LLMRequest"], None]] = None,
                 context: Any = None, agent_id: int = -1) -> None:
        if prompt_tokens < 0:
            raise ConfigError("prompt_tokens must be >= 0")
        if output_tokens < 1:
            # Every LLM call produces at least one token (even yes/no).
            raise ConfigError("output_tokens must be >= 1")
        self.request_id = request_id
        self.prompt_tokens = prompt_tokens
        self.output_tokens = output_tokens
        self.total_tokens = prompt_tokens + output_tokens
        self.priority = priority
        #: Called with this request when generation finishes.
        self.on_complete = on_complete
        #: Opaque payload for callers (e.g. (agent, step, call index)).
        self.context = context
        #: Issuing agent (-1 = anonymous). Keys per-agent KV retention
        #: and sticky routing; the scheduler's invocation-distance signal
        #: is looked up under this id.
        self.agent_id = agent_id
        # lifecycle timestamps (virtual seconds), filled by the engine
        self.submit_time = -1.0
        self.prefill_start = -1.0
        self.decode_start = -1.0
        self.finish_time = -1.0
        self.state = RequestState.QUEUED
        #: Replica that served the request.
        self.replica_id = -1
        #: Prompt tokens found warm in the agent's retained KV segment at
        #: admission (prefill is discounted by these; set by the replica).
        self.cached_prompt_tokens = 0

    def __repr__(self) -> str:
        return (f"LLMRequest(request_id={self.request_id}, "
                f"prompt_tokens={self.prompt_tokens}, "
                f"output_tokens={self.output_tokens}, "
                f"agent_id={self.agent_id}, state={self.state.name})")

    @property
    def latency(self) -> float:
        if self.finish_time < 0 or self.submit_time < 0:
            raise ConfigError("request not finished")
        return self.finish_time - self.submit_time
