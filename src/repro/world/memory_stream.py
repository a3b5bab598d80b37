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

Reuse contract. A ranking is the stable sort of the events on minus
their score, so equal scores keep stream order. The stream keeps its
last ranking and, asked again with the same query, carries it forward
instead of sorting again: evicted events are dropped by identity and
each appended event is inserted with ``bisect_right`` on its key at the
new step (after every equal key, as the stable sort puts it). That is
the full sort's result only when no two events change order between the
two steps, which holds under two conditions, checked before every reuse:

- every event's age lies in ``[0, 4000)`` at both steps, where the decay
  table is strictly decreasing (so events of one class keep their order);
- every pair of distinct classes ``p = (0.5 + importance) * relevance``
  the query can form is shift-safe: ``x = ln(p2 / p1) / ln(0.999)`` lies
  at least ``_SHIFT_MARGIN`` from every integer in ``(-4000, 4000)``.
  Two events of those classes then compare as their age difference
  compares to ``x`` — the same at every shift — with a margin the
  rounding of the float keys cannot cross. Classes are tracked on
  ``add``; a new importance forces the next ranking to sort in full.
  The verdict is memoised per process, per set of importances and
  query length.

Anything else — another query, an age outside the range, an unsafe
pair, every ranked event evicted — falls back to the full sort.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from typing import Callable


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
        #: Events ever added; the ranking records how many it saw.
        self._added = 0
        #: Every importance ever added (a superset of the classes held).
        self._importances: frozenset[float] = frozenset()
        #: The last ranking, its ``(now_step, query_keywords)``, the
        #: ``_added`` it saw and the stream it ranked, the step span
        #: ``(lo, hi)`` of the events it ranked (evicted ones included)
        #: and whether the query's classes are shift-safe. Only the
        #: cluster owning the agent touches it: no lock.
        self._ranked_for: tuple[int, frozenset[str]] | None = None
        self._ranked: list[MemoryEvent] = []
        self._ranked_added = 0
        self._stream: tuple[MemoryEvent, ...] = ()
        self._span = (0, 0)
        self._shiftable = False
        #: ``top_k`` -> token sum of the kept ranking's head.
        self._sums: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        """The held events, oldest first."""
        return iter(self._events)

    def add(self, event: MemoryEvent) -> None:
        self._events.append(event)
        self._added += 1
        self.importance_since_reflection += event.importance
        if event.importance not in self._importances:
            self._importances |= {event.importance}
            self._ranked_for = None

    def _ranking(self, now_step: int,
                 query_keywords: frozenset[str]) -> list[MemoryEvent]:
        """Events by descending recency * importance * relevance; equal
        scores keep stream order."""
        ranked_for = self._ranked_for
        if ranked_for is not None and ranked_for[1] == query_keywords:
            fresh = self._added - self._ranked_added
            then = ranked_for[0]
            if not fresh and then == now_step:
                return self._ranked
            if self._shiftable and self._carry(then, now_step,
                                               query_keywords, fresh):
                return self._ranked
        events = self._events
        self._ranked = sorted(events, key=_sort_key(now_step, query_keywords))
        self._sums = {}
        self._ranked_for = (now_step, query_keywords)
        self._ranked_added = self._added
        self._stream = tuple(events)
        steps = [event.step for event in events]
        self._span = (min(steps), max(steps)) if steps else (0, 0)
        self._shiftable = _shift_safe(self._importances, len(query_keywords))
        return self._ranked

    def _carry(self, then: int, now_step: int,
               query_keywords: frozenset[str], fresh: int) -> bool:
        """Bring the ranking at ``then`` forward to ``now_step`` with
        ``fresh`` events appended since; False (nothing changed) when the
        reuse contract does not hold."""
        ranked = self._ranked
        events = self._events
        gone = len(ranked) + fresh - len(events)
        if gone >= len(ranked):  # no ranked event left to reuse
            return False
        lo, hi = self._span
        if not (min(then, now_step) >= hi and max(then, now_step) - lo < 4000):
            return False
        self._ranked_for = (now_step, query_keywords)
        if not fresh:
            return True
        appended = list(islice(events, len(events) - fresh, None))
        for event in appended:  # in range at now_step: the next carry asks
            lo, hi = min(lo, event.step), max(hi, event.step)
        # The evicted are the first of the ranked stream: searched from
        # the end, where the oldest usually rank.
        for dead in self._stream[:gone]:
            i = len(ranked) - 1
            while ranked[i] is not dead:
                i -= 1
            del ranked[i]
        key = _sort_key(now_step, query_keywords)
        for event in appended:
            insort(ranked, event, key=key)
        self._ranked_added = self._added
        self._stream = tuple(events)
        self._span = (lo, hi)
        self._sums = {}
        return True

    def retrieved_tokens(self, now_step: int,
                         query_keywords: frozenset[str],
                         top_k: int = 8) -> int:
        """Token volume of a retrieval — the prompt-building cost driver.

        Sums the token lengths of the ``top_k`` best-ranked events; the
        ranking is kept across calls (module docstring), and each
        ``top_k``'s sum for as long as the ranking's order holds.
        """
        ranked = self._ranking(now_step, query_keywords)
        sums = self._sums
        total = sums.get(top_k)
        if total is None:
            total = sums[top_k] = sum(
                [event.tokens for event in ranked[:top_k]])
        return total

    def reset_reflection_counter(self) -> None:
        self.importance_since_reflection = 0.0


#: ``RECENCY_DECAY ** age`` for every age the score does not zero.
_DECAY = [MemoryStream.RECENCY_DECAY ** age for age in range(4000)]

#: How far from an integer age difference two classes' crossing point
#: must lie for their order to be the same at every shift: the float
#: keys carry a relative error near 1e-15, a crossing 1e-6 away in age
#: is a relative gap near 1e-9.
_SHIFT_MARGIN = 1e-6


def _sort_key(now_step: int, query_keywords: frozenset[str]
              ) -> Callable[[MemoryEvent], float]:
    """An event's sort key at ``now_step``: minus its score."""
    n_query = len(query_keywords)
    # One keyword (every prompt asks for the agent's activity): the
    # overlap is a membership test, and 0.1 + 1 / 1 and 0.1 + 0 / 1 are
    # the doubles 1.1 and 0.1.
    only = next(iter(query_keywords)) if n_query == 1 else None

    def key(event: MemoryEvent) -> float:
        age = now_step - event.step
        # (An event stamped after now_step must not index the table
        # from its end: it decays upward, as the power does.)
        recency = (_DECAY[age] if 0 <= age < 4000 else
                   MemoryStream.RECENCY_DECAY ** age if age < 0 else 0.0)
        relevance = ((1.1 if only in event.keywords else 0.1)
                     if n_query == 1 else
                     0.1 + len(query_keywords & event.keywords) / n_query
                     if n_query else 1.0)
        return -(recency * (0.5 + event.importance) * relevance)

    return key


@lru_cache(maxsize=256)
def _shift_safe(importances: frozenset[float], n_query: int) -> bool:
    """Whether every pair of the classes an ``n_query``-keyword query
    forms over ``importances`` keeps its order under a common shift of
    both ages (module docstring)."""
    relevances = ({0.1 + hits / n_query for hits in range(n_query + 1)}
                  if n_query else {1.0})
    classes = {(0.5 + importance, relevance) for importance in importances
               for relevance in relevances}
    return all(_pair_shift_safe(p1[0] * p1[1], p2[0] * p2[1])
               for p1, p2 in combinations(classes, 2))


def _pair_shift_safe(p1: float, p2: float) -> bool:
    """Two distinct classes' products never cross at an integer age
    difference in ``(-4000, 4000)`` (an equal product, x = 0, does)."""
    if not (0.0 < p1 < math.inf and 0.0 < p2 < math.inf):  # NaN too
        return False
    x = math.log(p2 / p1) / math.log(MemoryStream.RECENCY_DECAY)
    if abs(x) >= 3999 + _SHIFT_MARGIN:
        return True
    return abs(x - round(x)) >= _SHIFT_MARGIN
