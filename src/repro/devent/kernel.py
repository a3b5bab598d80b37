"""Event heap and virtual clock.

The kernel is deliberately small: a binary heap of ``(time, seq, Event)``
entries with a monotonically increasing sequence number so that events
scheduled earlier run first at equal timestamps (deterministic tie-break).

Every layer (the scheduler drivers, the serving engine, the chain
executor) schedules plain callbacks: ``kernel.call_at(t, fn, *args)`` /
``call_in(dt, ...)``. A callback that must wait for something registers
the next callback with whatever it waits on.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from ..errors import KernelError


class Event:
    """A scheduled callback. Cancel with :meth:`cancel`."""

    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (lazy removal from the heap)."""
        self.cancelled = True


class Kernel:
    """The virtual-time event loop."""

    def __init__(self) -> None:
        #: Current virtual time in seconds. A plain attribute, not a
        #: property: the serving engine reads it several times per
        #: call. Only the kernel writes it.
        self.now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._running = False

    @property
    def events_scheduled(self) -> int:
        """Events ever scheduled on this kernel, by every layer."""
        return self._seq

    # -- scheduling ---------------------------------------------------

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise KernelError(
                f"cannot schedule at {time} (now is {self.now})")
        ev = Event(time, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, ev))
        return ev

    def call_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise KernelError(f"negative delay {delay}")
        return self.call_at(self.now + delay, fn, *args)

    # -- execution ----------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the heap empties or ``until`` is reached.

        Returns the virtual time at which execution stopped.
        """
        if self._running:
            raise KernelError("kernel is already running (re-entrant run)")
        self._running = True
        heap = self._heap
        try:
            while heap:
                time, _, ev = heap[0]
                if until is not None and time > until:
                    self.now = until
                    break
                heapq.heappop(heap)
                if ev.cancelled:
                    continue
                self.now = time
                ev.fn(*ev.args)
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
        return self.now
