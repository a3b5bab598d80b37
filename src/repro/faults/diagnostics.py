"""Diagnostic dump for scheduler stalls and watchdog fires.

Rendered for :meth:`ControllerCore.stalled` — the live engine's
no-progress watchdog and both transports' stall checks surface the same
evidence: who is blocked on whom, what is still marked running, how deep
the queues are, and how stale the last ack is.
"""

from __future__ import annotations

#: Cap on enumerated agents per section so a million-agent dump stays
#: readable; the totals are always exact.
_MAX_LISTED = 20


def scheduler_diagnostics(*, done: int, total: int,
                          blocked: dict[int, list[int]] | None = None,
                          running: list[int] | None = None,
                          ready_depth: int | None = None,
                          ack_depth: int | None = None,
                          last_ack_age: float | None = None,
                          redispatches: int | None = None) -> str:
    """Render one multi-line stall/watchdog report."""
    lines = [f"progress: {done}/{total} agents done"]
    if blocked is not None:
        shown = dict(sorted(blocked.items())[:_MAX_LISTED])
        suffix = "" if len(blocked) <= _MAX_LISTED \
            else f" (+{len(blocked) - _MAX_LISTED} more)"
        lines.append(
            f"blocked pairs ({len(blocked)} agents){suffix}: {shown}")
    if running is not None:
        shown_run = sorted(running)[:_MAX_LISTED]
        suffix = "" if len(running) <= _MAX_LISTED \
            else f" (+{len(running) - _MAX_LISTED} more)"
        lines.append(
            f"running clusters ({len(running)} agents){suffix}: "
            f"{shown_run}")
    if ready_depth is not None or ack_depth is not None:
        lines.append(
            f"queue depths: ready={ready_depth} ack={ack_depth}")
    if last_ack_age is not None:
        lines.append(f"last ack age: {last_ack_age:.3f}s")
    if redispatches is not None:
        lines.append(f"redispatches so far: {redispatches}")
    return "\n  ".join(lines)
