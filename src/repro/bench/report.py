"""The bench harness's shared layer: tables, report envelope, timed cell.

Every ``repro-bench`` gate family (hotpath, ``hotpath --scale``,
serving, chaos, smoke) writes its report through :func:`run_report`,
and each terminal table prints through :func:`format_table`; the
hotpath, scale and serving cells time their replay with
:func:`timed_cell` and their gates check the matrix with
:func:`missing_cells`. Each family keeps only its own cells, extra
entry fields and gate rules. The paper's figure and table experiments
print through the same :func:`format_table`.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import time
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..core import run_replay


class Column(NamedTuple):
    """One column of a gate report's :func:`format_table` spec:
    ``spec`` aligns and pads the header and every cell (``"<14"``; a
    longer cell overflows it), ``cell`` formats a present value (an
    absent one prints "-"), ``key`` names the entry field or is a
    function of the entry (default: the header)."""

    header: str
    spec: str = ""
    cell: str = "{}"
    key: str | Callable | None = None

    def render(self, entry) -> str:
        key = self.key or self.header
        value = key(entry) if callable(key) else entry.get(key)
        return "-" if value is None else self.cell.format(value)


def format_table(title: str | None, columns: Sequence,
                 rows: Sequence, note: str | None = None) -> str:
    """Fixed-width plain-text table, optionally under a title rule.

    ``columns`` of header strings make the paper's GitHub-style tables:
    ``rows`` are sequences, widths fit the widest cell, floats print
    with one decimal. ``columns`` of :class:`Column` make the gate
    reports: ``rows`` are report entries, every column keeps its width.
    """
    lines = [title, "=" * len(title)] if title else []
    if all(isinstance(c, str) for c in columns):
        cells = [[f"{v:.1f}" if isinstance(v, float) else str(v)
                  for v in row] for row in rows]
        widths = [max(len(r[c]) for r in [columns, *cells])
                  for c in range(len(columns))]
        lines.append(" | ".join(h.ljust(w) for h, w in zip(columns, widths)))
        lines.append("-+-".join("-" * w for w in widths))
        lines += [" | ".join(v.rjust(w) for v, w in zip(row, widths))
                  for row in cells]
    else:
        header = "".join(format(c.header, c.spec) for c in columns)
        lines += [header, "-" * len(header)]
        lines += ["".join(format(c.render(row), c.spec) for c in columns)
                  for row in rows]
    if note:
        lines.append(f"({note})")
    return "\n".join(lines)


def format_series(title: str, xs: Sequence[object],
                  series: dict[str, Sequence[float]]) -> str:
    """A figure's line series as a table with one column per x value."""
    headers = ["series", *[str(x) for x in xs]]
    rows = [[name, *[f"{v:.1f}" for v in values]]
            for name, values in series.items()]
    return format_table(title, headers, rows)


def calibration_score(rounds: int = 5, iters: int = 100_000) -> float:
    """Machine-speed reading (ops/sec, higher = faster hardware).

    A fixed, deterministic workload with the controller's op mix —
    dict/set churn plus small numpy reductions — timed best-of-N.
    Reports record it beside their timings; no gate reads it.
    """
    best = 0.0
    arr = np.arange(256, dtype=np.int64)
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        d: dict[int, int] = {}
        s: set[int] = set()
        for i in range(iters):
            k = (i * 2654435761) & 1023
            d[k] = i
            s.add(k & 255)
            acc += d.get((k * 7) & 1023, 0)
            if not i & 1023:
                acc += int((np.abs(arr - (k & 255)) <= 16).sum())
        elapsed = time.perf_counter() - t0
        if elapsed > 0:
            best = max(best, iters / elapsed)
    return best


def git_sha() -> str | None:
    """The commit of the source tree this harness runs from (``None``
    outside a git checkout)."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def write_report(report: dict, out: Path | str | None) -> None:
    """Write ``report`` as indented JSON to ``out`` (None: don't)."""
    if out is None:
        return
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")


def run_report(benchmark: str, out: Path | str | None,
               measure: Callable[[], dict], **fields) -> dict:
    """Run one gate family's matrix and write its report to ``out``.

    The report names the benchmark, the commit (``git_sha``) and the
    processors it may use (``nproc``), then the family's ``fields``,
    the machine's ``calibration_ops_per_sec`` read before ``measure()``
    and ``calibration_after_ops_per_sec`` after it (far apart: the
    report straddles a machine speed change), then what ``measure()``
    returned (``entries`` and the family's own blocks).
    """
    report = {"benchmark": benchmark, "git_sha": git_sha(),
              "nproc": len(os.sched_getaffinity(0))
              if hasattr(os, "sched_getaffinity") else os.cpu_count(),
              **fields, "calibration_ops_per_sec": calibration_score()}
    body = measure()
    report["calibration_after_ops_per_sec"] = calibration_score()
    report.update(body)
    write_report(report, out)
    return report


def missing_cells(report: dict, key: str,
                  required: Sequence) -> list[str]:
    """One failure per (scenario, ``key`` value) cell of the report's
    matrix that no entry holds: every scenario it ran needs every
    value in ``required``."""
    present = {(e["scenario"], e.get(key)) for e in report["entries"]}
    return [f"{scenario}@{value}: required matrix cell missing from "
            f"the report" for scenario in report.get("scenarios", [])
            for value in required if (scenario, value) not in present]


def _reset_peak_rss() -> None:
    """Start a new RSS high-water mark at the current RSS (Linux: ``5``
    written to ``/proc/self/clear_refs``); where that file is absent or
    not writable the mark stays the process's."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """High-water RSS in MiB since the last reset (``ru_maxrss`` is KiB
    on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_cell(trace, scheduler, serving=None):
    """Run ``run_replay`` once; return the result and the entry fields
    every controller cell reports (the family adds its own).
    ``agent_steps_per_sec`` is per controller second."""
    wall0 = time.perf_counter()
    result = run_replay(trace, scheduler, serving)
    wall = time.perf_counter() - wall0
    stats = result.driver_stats
    agent_steps = trace.meta.n_agents * trace.meta.n_steps
    controller = stats.controller_time
    slots = stats.extra.get("graph_scanned_slots", 0)
    return result, {
        "scenario": scheduler.scenario,
        "n_agents": trace.meta.n_agents,
        "n_steps": trace.meta.n_steps,
        "agent_steps": agent_steps,
        "policy": scheduler.policy,
        "wall_time_s": wall,
        "controller_time_s": controller,
        "clusters_dispatched": stats.clusters_dispatched,
        "scanned_slots": slots,
        "scanned_slots_per_scan":
            slots / max(stats.extra.get("graph_scans", 0), 1),
        "agent_steps_per_sec": agent_steps / controller if controller
        else float("inf"),
        "wall_agent_steps_per_sec": agent_steps / wall if wall
        else float("inf"),
    }
