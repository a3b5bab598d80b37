"""Event heap, virtual clock, and lightweight processes.

The kernel is deliberately small: a binary heap of ``(time, seq, Event)``
entries with a monotonically increasing sequence number so that events
scheduled earlier run first at equal timestamps (deterministic tie-break).

Two programming styles are supported:

* **Callbacks** — ``kernel.call_at(t, fn, *args)`` / ``call_in(dt, ...)``.
  This is the style used by the performance-critical serving engine and
  scheduler drivers.
* **Processes** — generator functions that ``yield Timeout(dt)`` or
  ``yield gate`` (a :class:`Gate`). Convenient for tests and examples.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

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

    def step(self) -> bool:
        """Run a single (non-cancelled) event. Returns False when empty."""
        while self._heap:
            time, _, ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            self.now = time
            ev.fn(*ev.args)
            return True
        return False

    def empty(self) -> bool:
        return not any(not ev.cancelled for _, _, ev in self._heap)

    # -- processes ------------------------------------------------------

    def process(self, gen: Generator) -> "Process":
        """Start a generator-based process immediately (at current time)."""
        proc = Process(self, gen)
        self.call_at(self.now, proc._advance, None)
        return proc


class Timeout:
    """Yielded by a process to sleep ``delay`` virtual seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise KernelError(f"negative timeout {delay}")
        self.delay = delay


class Gate:
    """A one-shot broadcast event processes can wait on.

    ``fire(value)`` wakes every waiter with ``value`` as the yield result;
    waiting on an already-fired gate resumes immediately.
    """

    __slots__ = ("kernel", "fired", "value", "_waiters")

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.fired = False
        self.value: Any = None
        self._waiters: list[Callable[[Any], None]] = []

    def fire(self, value: Any = None) -> None:
        if self.fired:
            raise KernelError("gate already fired")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            self.kernel.call_at(self.kernel.now, resume, value)

    def add_waiter(self, resume: Callable[[Any], None]) -> None:
        if self.fired:
            self.kernel.call_at(self.kernel.now, resume, self.value)
        else:
            self._waiters.append(resume)


class Process:
    """A running generator-based process.

    The generator may yield :class:`Timeout` or :class:`Gate` instances and
    receives the gate's fire value (or None) back from the yield. When the
    generator returns, :attr:`done` gate fires with its return value.
    """

    __slots__ = ("kernel", "gen", "done")

    def __init__(self, kernel: Kernel, gen: Generator) -> None:
        self.kernel = kernel
        self.gen = gen
        self.done = Gate(kernel)

    def _advance(self, send_value: Any) -> None:
        try:
            yielded = self.gen.send(send_value)
        except StopIteration as stop:
            self.done.fire(stop.value)
            return
        if isinstance(yielded, Timeout):
            self.kernel.call_in(yielded.delay, self._advance, None)
        elif isinstance(yielded, Gate):
            yielded.add_waiter(self._advance)
        elif isinstance(yielded, Process):
            yielded.done.add_waiter(self._advance)
        else:
            raise KernelError(
                f"process yielded unsupported value {yielded!r}")
