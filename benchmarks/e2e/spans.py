"""In-memory span tracer and the class-level patches that feed it.

The benchmark measures the layers from outside: nothing under ``src/``
knows about spans. A :class:`Tracer` keeps one span stack per thread;
:class:`Patches` swaps public entry points of the layers for wrappers
that open a span around the original, and puts every original back on
exit. Kernel callbacks (and the completion callbacks handed to the
serving engine and the chain executor) get a span named after the layer
whose module defined them, so host time inside ``Kernel.run`` is
attributed to the layer that actually ran.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable


class _Columns:
    """One thread's spans as parallel columns, plus its open-span stack.

    Columns of floats, ints and interned names instead of one record
    object per span: the cyclic collector ``run_replay`` runs at the end
    would otherwise walk hundreds of thousands of extra containers and
    bill the tracer's garbage to the traced program.
    """

    __slots__ = ("names", "starts", "ends", "parents", "child", "stack")

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        #: Index of the parent span in these columns, -1 for a root.
        self.parents: list[int] = []
        #: Summed duration of direct children, so self time is O(1).
        self.child: list[float] = []
        self.stack: list[int] = []


class Tracer:
    """Nested spans; self time = duration - time covered by children."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: One per thread that opened a span; threads never share one,
        #: so recording takes no lock.
        self.threads: list[_Columns] = []
        self._local = threading.local()
        self._callback_names: dict[str | None, str] = {}

    def _columns(self) -> _Columns:
        try:
            return self._local.columns
        except AttributeError:
            self._local.columns = columns = _Columns()
            self.threads.append(columns)
            return columns

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        cols = self._columns()
        stack = cols.stack
        index = len(cols.names)
        cols.names.append(name)
        cols.parents.append(stack[-1] if stack else -1)
        cols.ends.append(0.0)
        cols.child.append(0.0)
        stack.append(index)
        clock = self.clock
        start = clock()
        cols.starts.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = cols.ends[index] = clock()
            stack.pop()
            if stack:
                cols.child[stack[-1]] += end - start

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span called ``name`` around every call."""
        call = self.call

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return call(name, fn, *args, **kwargs)

        return traced

    def callback(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a ``<layer>.callback`` span, layer from its module.

        Made once per scheduled event, so it skips ``functools.wraps``
        and looks the span name up by module.
        """
        module = getattr(fn, "__module__", None)
        name = self._callback_names.get(module)
        if name is None:
            name = self._callback_names[module] = layer_of(fn) + ".callback"
        call = self.call

        def traced_callback(*args: Any) -> Any:
            return call(name, fn, *args)

        return traced_callback

    # -- reading the spans --------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and ``total_s``."""
        out: dict[str, dict[str, float]] = {}
        for cols in self.threads:
            for name, start, end, child in zip(
                    cols.names, cols.starts, cols.ends, cols.child):
                row = out.setdefault(
                    name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                row["calls"] += 1
                row["self_s"] += end - start - child
                row["total_s"] += end - start
        return out

    def children_of(self, parent_name: str) -> int:
        """How many spans have a direct parent called ``parent_name``."""
        return sum(1 for cols in self.threads for parent in cols.parents
                   if parent >= 0 and cols.names[parent] == parent_name)

    def rows(self) -> list[list]:
        """``[name, start, end, parent index]`` per span, for the report.

        Threads follow one another; parent indices point into the whole
        list, -1 marks a root.
        """
        rows: list[list] = []
        for cols in self.threads:
            base = len(rows)
            rows += [[name, start, end, parent if parent < 0
                      else base + parent]
                     for name, start, end, parent in zip(
                         cols.names, cols.starts, cols.ends, cols.parents)]
        return rows


def layer_of(fn: Callable[..., Any]) -> str:
    """The layer (``repro`` sub-module) whose code defines ``fn``.

    ``repro.core.<m>`` maps to ``<m>`` and ``repro.<pkg>.*`` to
    ``<pkg>``, which are the layer names the per-layer metrics use.
    """
    parts = (getattr(fn, "__module__", None) or "").split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    if parts[1] == "core" and len(parts) > 2:
        return parts[2]
    return parts[1]


class Patches:
    """Attribute swaps on classes and modules, undone on exit."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, new: Any) -> None:
        # vars() keeps staticmethod/classmethod wrappers intact, which
        # getattr() would unwrap and so restore the wrong object.
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


def wrap_argument(tracer: Tracer, name: str, fn: Callable[..., Any],
                  position: int, keyword: str) -> Callable[..., Any]:
    """Span ``name`` around ``fn``; its callback argument gets a span too.

    The callback is the argument at ``position`` (counting ``self``) or
    the keyword ``keyword``; ``None`` callbacks pass through untouched.
    """
    call = tracer.call
    callback = tracer.callback

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if kwargs.get(keyword) is not None:
            kwargs[keyword] = callback(kwargs[keyword])
        elif len(args) > position and args[position] is not None:
            args = (*args[:position], callback(args[position]),
                    *args[position + 1:])
        return call(name, fn, *args, **kwargs)

    return traced
