"""Execution instrumentation: per-agent timelines (Figure 1)."""

from .timeline import TimelineRecorder, TimelineEvent, render_ascii_timeline

__all__ = [
    "TimelineRecorder",
    "TimelineEvent",
    "render_ascii_timeline",
]
