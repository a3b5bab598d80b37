"""Associative memory stream (the GenAgent "retrieve" substrate).

GenAgent agents keep an append-only stream of observations and retrieve
the most salient ones to build LLM prompts; prompt length therefore grows
with how eventful an agent's recent life has been. We reproduce that
mechanism — recency/importance/relevance scoring over an event stream —
without an LLM: importance is assigned at write time and relevance is
keyword overlap.

The stream is bounded (a deque) because retrieval runs on the trace
generator's innermost loop: tens of thousands of retrievals per simulated
day. Recency decay makes old events score near zero anyway, so bounding
the window changes scores negligibly while keeping retrieval O(window).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class MemoryEvent:
    """One observation in the stream."""

    step: int
    kind: str  # "observation" | "chat" | "plan" | "reflection"
    keywords: frozenset[str]
    importance: float  # [0, 1]
    #: Token length of the event's natural-language description.
    tokens: int


class MemoryStream:
    """Bounded event stream with salience-scored retrieval."""

    #: Exponential recency decay per step (GenAgent decays per hour; this
    #: is the equivalent rate for the 10-second step).
    RECENCY_DECAY = 0.999
    #: Events retained (recency decay makes older ones irrelevant).
    WINDOW = 64

    def __init__(self, window: int = WINDOW) -> None:
        self._events: deque[MemoryEvent] = deque(maxlen=window)
        #: Importance accumulated since the last reflection (GenAgent
        #: triggers reflection when this crosses a threshold).
        self.importance_since_reflection = 0.0
        #: The last ranking and its ``(now_step, query_keywords)``: the
        #: calls of one chain all retrieve before the memory is written.
        #: Only the cluster owning the agent touches it: no lock.
        self._ranked_for: tuple[int, frozenset[str]] | None = None
        self._ranked: list[MemoryEvent] = []

    def __len__(self) -> int:
        return len(self._events)

    def add(self, event: MemoryEvent) -> None:
        self._events.append(event)
        self.importance_since_reflection += event.importance
        self._ranked_for = None

    def _ranking(self, now_step: int,
                 query_keywords: frozenset[str]) -> list[MemoryEvent]:
        """Events by descending recency * importance * relevance; equal
        scores keep stream order."""
        if self._ranked_for != (now_step, query_keywords):
            events = list(self._events)
            n_query = len(query_keywords)
            # One keyword (every prompt asks for the agent's activity):
            # the overlap is a membership test, and 0.1 + 1 / 1 and
            # 0.1 + 0 / 1 are the doubles 1.1 and 0.1.
            only = next(iter(query_keywords)) if n_query == 1 else None
            keys = []
            for event in events:
                age = now_step - event.step
                # (An event stamped after now_step must not index the
                # table from its end: it decays upward, as the power does.)
                recency = (_DECAY[age] if 0 <= age < 4000 else
                           self.RECENCY_DECAY ** age if age < 0 else 0.0)
                relevance = ((1.1 if only in event.keywords else 0.1)
                             if n_query == 1 else
                             0.1 + len(query_keywords & event.keywords)
                             / n_query if n_query else 1.0)
                keys.append(-(recency * (0.5 + event.importance) * relevance))
            self._ranked = [events[i] for i in sorted(
                range(len(events)), key=keys.__getitem__)]
            self._ranked_for = (now_step, query_keywords)
        return self._ranked

    def retrieve(self, now_step: int, query_keywords: frozenset[str],
                 top_k: int = 8) -> list[MemoryEvent]:
        """Top-k events by recency * importance * relevance."""
        return self._ranking(now_step, query_keywords)[:top_k]

    def retrieved_tokens(self, now_step: int,
                         query_keywords: frozenset[str],
                         top_k: int = 8) -> int:
        """Token volume of a retrieval — the prompt-building cost driver.

        Sums the token lengths of the ``top_k`` best-ranked events; the
        ranking is computed once per ``(memory state, now_step, query)``.
        """
        return sum(event.tokens for event in
                   self._ranking(now_step, query_keywords)[:top_k])

    def reset_reflection_counter(self) -> None:
        self.importance_since_reflection = 0.0


#: ``RECENCY_DECAY ** age`` for every age the score does not zero.
_DECAY = [MemoryStream.RECENCY_DECAY ** age for age in range(4000)]
