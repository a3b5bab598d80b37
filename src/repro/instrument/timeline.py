"""Per-agent LLM invocation timelines (the paper's Figure 1).

Each recorded event is one LLM call: which agent issued it, at which
simulation step, which agent function produced it, and its [submit,
finish] interval in virtual time. ``render_ascii_timeline`` draws the
figure's layout — one row per agent, colored bars per function — as text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..world.behavior import FUNCS


@dataclass(frozen=True)
class TimelineEvent:
    agent: int
    step: int
    func_id: int
    submit_time: float
    finish_time: float

    @property
    def func(self) -> str:
        return FUNCS[self.func_id]


class TimelineRecorder:
    """Collects call events; plug its :meth:`record` into ChainExecutor."""

    def __init__(self) -> None:
        self.events: list[TimelineEvent] = []

    def record(self, agent: int, step: int, func_id: int,
               submit_time: float, finish_time: float) -> None:
        self.events.append(TimelineEvent(agent, step, func_id,
                                         submit_time, finish_time))


#: One glyph per agent function, mirroring Figure 1's color coding.
_GLYPHS = "PWADLOUSRM"


def render_ascii_timeline(events: Iterable[TimelineEvent],
                          n_agents: int,
                          width: int = 100,
                          t0: float | None = None,
                          t1: float | None = None,
                          step_marks: Sequence[float] = ()) -> str:
    """Figure 1 as text: agents as rows, time as columns.

    ``step_marks`` draws the dashed global-synchronization lines of the
    parallel-sync schedule (``|`` columns).
    """
    events = list(events)
    if not events:
        return "(no events)"
    lo = min(e.submit_time for e in events) if t0 is None else t0
    hi = max(e.finish_time for e in events) if t1 is None else t1
    if hi <= lo:
        hi = lo + 1.0
    scale = width / (hi - lo)
    rows = [[" "] * width for _ in range(n_agents)]
    for e in events:
        if e.finish_time < lo or e.submit_time > hi:
            continue
        c0 = max(int((e.submit_time - lo) * scale), 0)
        c1 = min(int((e.finish_time - lo) * scale), width - 1)
        glyph = _GLYPHS[e.func_id % len(_GLYPHS)]
        for c in range(c0, c1 + 1):
            rows[e.agent][c] = glyph
    for mark in step_marks:
        if lo <= mark <= hi:
            c = min(int((mark - lo) * scale), width - 1)
            for row in rows:
                if row[c] == " ":
                    row[c] = "|"
    lines = [f"agent {aid:>4} |{''.join(row)}|"
             for aid, row in enumerate(rows)]
    legend = " ".join(f"{_GLYPHS[i]}={FUNCS[i]}" for i in range(len(FUNCS)))
    header = f"time: {lo:.1f}s .. {hi:.1f}s   ({width} cols)"
    return "\n".join([header, *lines, legend])
