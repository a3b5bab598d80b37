"""Controller hot-path benchmark (§3.6 light critical path).

OOO scheduling only pays off while the controller's per-decision cost
stays far below LLM latency, so this benchmark measures the controller
itself: replay each registered scenario's active window under
``metropolis`` at several agent scales and report **controller
agent-steps per second** — agent-steps retired divided by the wall-clock
seconds the controller spent clustering, updating the dependency graph,
and dispatching (the :attr:`DriverStats.controller_time` accounting).
LLM/serving time is virtual and therefore excluded; the number tracks
pure scheduler overhead.

``repro-bench hotpath`` writes the report to ``BENCH_hotpath.json``;
``--check`` gates it **on counts** and only reports the seconds. Each
cell's exact counters — the same trace gives the same count on every
machine — must stay under its scenario's row of :data:`COUNT_CEILINGS`
(full blocker scans per agent-step, slots per scan, kernel events per
cluster); every (scenario, agent-count) cell the
report ran must be present; and with ``--spec`` the speculative mode's
virtual-time ratio over plain OOO must hold :data:`MIN_SPEC_RATIO` on
every cell and win on one. The timings — controller agent-steps/s per
cell, and the ``generation`` block's one cold full-day
``generate_trace`` per scenario — only have to clear raw sanity floors
(:data:`MIN_THROUGHPUT`, :data:`MIN_GENERATION_THROUGHPUT`) set far
below every recorded reading: they catch a path that fell off a cliff,
not machine weather. Every report records ``calibration_ops_per_sec``
before its matrix and ``calibration_after_ops_per_sec`` after it, so a
report taken across a machine speed change says so; nothing is
normalised by it.

``repro-bench hotpath --scale`` runs the separate **scale matrix**
instead: for each of :data:`SCALE_SCENARIOS`, a 2000-agent reference
cell and a 100k-agent cell (1M best-effort locally via
``--scale-agents``), both built by the tiled
:func:`~repro.trace.generator.generate_scale_trace` workload (widened
inter-segment gutters so the region planner can actually shard) and
replayed on one dependency graph in process, then through the worker
pool. The gate is *relative*: per-agent-step controller throughput at
scale must stay within :data:`MIN_SCALE_RATIO` of the same scenario's
2000-agent cell — a flat curve is precisely the banded-scan claim —
plus a raw sanity floor, and every entry reports its own
``peak_rss_mb`` so memory blowups surface in the report.
"""

from __future__ import annotations

import json
import resource
import time
from pathlib import Path

import numpy as np

from ..config import SchedulerConfig
from ..core import run_replay
from ..scenarios import get_scenario, scenario_names
from ..trace import (generate_concatenated_trace, generate_trace,
                     trace_fingerprint)
from ..trace.generator import generate_scale_trace

#: Agent scales benchmarked (the paper's §4.3 scaling axis; the
#: 2000-agent cell pins the flattened scaling curve of the zero-rescan
#: scheduler).
AGENT_COUNTS = (25, 100, 500, 1000, 2000)
HOTPATH_SEED = 0
#: The scale matrix (``--scale``): one coordinate-metric and one
#: graph-metric scenario, a shared small-scale reference cell, and the
#: CI-gated large cell. 1M is the documented best-effort local run.
SCALE_SCENARIOS = ("smallville", "social-graph")
SCALE_REFERENCE_AGENTS = 2_000
SCALE_AGENTS = 100_000
SCALE_STEPS = 30
#: Shard sizing rule for the parallel scale cells: one planner shard
#: per this many agents, so LPT packs hundreds of small shards onto the
#: workers and their loads stay balanced. A serial cell runs one graph
#: whatever the rule says.
SCALE_AGENTS_PER_SHARD = 250
#: Scale gate: the large cell's controller agent-steps/s must stay
#: within this ratio of the same scenario's reference cell. O(live)
#: scans or controller structures that grow with the population would
#: collapse the ratio; O(local) work keeps the curve flat.
MIN_SCALE_RATIO = 0.7
#: Raw sanity floors, in agent-steps/s, on timings the reports carry.
#: Each sits several times below the slowest committed reading (a
#: 2-core container at ~2M calibration ops/s): scale cells 59.8k
#: (social-graph@100k, serial), matrix cells 25.9k (social-graph@2000),
#: the ``generation`` block's cold full day 55.5k (social-graph;
#: measured once per scenario on purpose — a re-run would find the path
#: planners warm, another quantity).
SCALE_MIN_THROUGHPUT = 2_000.0
MIN_THROUGHPUT = 5_000.0
MIN_GENERATION_THROUGHPUT = 15_000.0


def _ceilings(scans: float, events_total: float, slots_per_scan: float,
              kernel_events: float) -> dict[str, float]:
    return {"scans_per_agent_step": scans,
            "events_total_per_cluster": events_total,
            "scanned_slots_per_scan": slots_per_scan,
            "kernel_events_per_cluster": kernel_events}


#: The hot-path gate: per scenario, a ceiling on each exact counter of a
#: cell's replay (same trace, same count on any machine — nothing to
#: retry or calibrate): ``scans_per_agent_step`` (full blocker scans per
#: committed agent-step), ``events_total_per_cluster`` (kernel events of
#: every layer per dispatched cluster), ``scanned_slots_per_scan`` and
#: ``kernel_events_per_cluster`` (the driver's own events: one per round
#: plus one launch per round that launches a call). Each sits 1.25x
#: above the worst committed 25-2000 cell (trailing comments, same
#: order). A call-free cluster taking a launch event again reads 1.13 /
#: 1.47 / 0.74 / 0.52 driver events (each row's worst cell before that
#: launch went), past every row.
COUNT_CEILINGS: dict[str, dict[str, float]] = {
    # 0.0760 / 1.652 / 17.17 / 0.686
    "market-town": _ceilings(0.095, 2.07, 21.5, 0.857),
    # 0.0704 / 2.561 / 26.74 / 0.903
    "metro-grid": _ceilings(0.088, 3.21, 33.5, 1.129),
    # 0.0683 / 0.944 / 32.05 / 0.430
    "smallville": _ceilings(0.0853, 1.19, 40.1, 0.537),
    # 0.1184 / 0.825 / 22.75 / 0.314
    "social-graph": _ceilings(0.148, 1.04, 28.5, 0.392),
}
#: Speculation gate: speculative mode's virtual completion time may
#: never trail plain OOO by more than 2% on any cell (the ratio is a
#: deterministic virtual-time quantity — no retries, no calibration)
#: and must strictly win on at least one cell of the report, or the
#: mode has regressed into dead weight.
MIN_SPEC_RATIO = 0.98
#: Worker processes for the multiprocess scale cells.
PARALLEL_WORKERS = 4
#: Parallel gate: the multiprocess 100k cell's controller agent-steps/s
#: (critical-path accounting — the merged controller time is the
#: slowest worker's CPU time, i.e. the wall time on dedicated cores)
#: must beat the same run's in-process cell by this factor.
#: With 4 workers over ~400 balanced shards the critical path is ~1/4
#: of the serial walk; 1.5x keeps >2x headroom for skew and merge
#: overhead while still failing any serialization regression. A
#: within-run ratio, so machine-normalized by construction.
MIN_PARALLEL_RATIO = 1.5


def hotpath_trace(scenario, n_agents: int, seed: int = HOTPATH_SEED):
    """The benchmark workload: the scenario's active window at scale.

    Mirrors the §4.3 scaling methodology — independently-seeded map
    segments concatenated side by side — so clustering pressure per
    segment matches the real workload at every agent count.
    """
    scn = get_scenario(scenario)
    start, end = scn.active_window
    day = generate_concatenated_trace(n_agents, end, base_seed=seed,
                                      scenario=scn)
    return day.window(start, end)


def bench_generation(scenarios: list[str]) -> list[dict]:
    """One cold full-day segment per scenario, straight through
    ``generate_trace`` (no trace cache): what a first run waits for."""
    rows = []
    for name in scenarios:
        t0 = time.perf_counter()
        trace = generate_trace(seed=HOTPATH_SEED, scenario=name)
        wall = time.perf_counter() - t0
        steps = trace.meta.n_agents * trace.meta.n_steps
        rows.append({
            "scenario": name, "agent_steps": steps, "wall_s": wall,
            "agent_steps_per_sec": steps / wall,
            "n_calls": trace.n_calls,
            "fingerprint": trace_fingerprint(trace)})
    return rows


def bench_one(scenario: str, n_agents: int,
              policy: str = "metropolis", spec: bool = False) -> dict:
    """Replay one (scenario, scale) cell; returns its report entry.

    ``spec=True`` additionally replays the *same* trace under the
    ``metropolis-spec`` policy and attaches the speculative win/loss
    column: ``spec_speedup`` is the base policy's virtual completion
    time over speculative mode's — a pure virtual-time ratio, so it is
    deterministic and machine-independent — plus the speculation
    ledger counters (``speculations`` / ``misspeculations`` /
    ``squashes`` / ``spec_retires`` / ``spec_rollback_rows``).
    """
    scn = get_scenario(scenario)
    trace = hotpath_trace(scn, n_agents)
    wall0 = time.perf_counter()
    result = run_replay(
        trace, SchedulerConfig(policy=policy, scenario=scn.name))
    wall = time.perf_counter() - wall0
    stats = result.driver_stats
    agent_steps = trace.meta.n_agents * trace.meta.n_steps
    controller = stats.controller_time
    kernel_events = stats.extra.get("kernel_events", 0)
    entry = {
        "scenario": scn.name,
        "n_agents": trace.meta.n_agents,
        "n_steps": trace.meta.n_steps,
        "agent_steps": agent_steps,
        "policy": policy,
        "wall_time_s": wall,
        "controller_time_s": controller,
        "time_clustering_s": stats.time_clustering,
        "time_graph_s": stats.time_graph,
        "time_dispatch_s": stats.time_dispatch,
        "controller_rounds": stats.controller_rounds,
        "clusters_dispatched": stats.clusters_dispatched,
        "mean_cluster_size": stats.mean_cluster_size,
        "kernel_events": kernel_events,
        "kernel_events_per_cluster": kernel_events
        / max(stats.clusters_dispatched, 1),
        "events_total_per_cluster": stats.extra.get("kernel_events_total", 0)
        / max(stats.clusters_dispatched, 1),
        "scans_per_agent_step": stats.extra.get("graph_scans", 0)
        / agent_steps,
        "scanned_slots": stats.extra.get("graph_scanned_slots", 0),
        "scanned_slots_per_scan": stats.extra.get("graph_scanned_slots", 0)
        / max(stats.extra.get("graph_scans", 0), 1),
        "agent_steps_per_sec": agent_steps / controller if controller
        else float("inf"),
        "wall_agent_steps_per_sec": agent_steps / wall if wall
        else float("inf"),
        "completion_time_s": result.completion_time,
    }
    if spec:
        wall1 = time.perf_counter()
        spec_result = run_replay(
            trace, SchedulerConfig(policy="metropolis-spec",
                                   scenario=scn.name))
        extra = spec_result.driver_stats.extra
        entry.update({
            "spec_completion_time_s": spec_result.completion_time,
            "spec_speedup": result.completion_time
            / spec_result.completion_time
            if spec_result.completion_time else float("inf"),
            "spec_wall_time_s": time.perf_counter() - wall1,
            "speculations": extra["speculations"],
            "misspeculations": extra["misspeculations"],
            "squashes": extra["squashes"],
            "spec_retires": extra["spec_retires"],
            "spec_rollback_rows": extra["rollback_rows"],
        })
    return entry


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


def write_report(report: dict, out: Path | str | None) -> None:
    """Write ``report`` as indented JSON to ``out`` (None: don't)."""
    if out is None:
        return
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")


def bench_scale_one(scenario: str, n_agents: int,
                    n_steps: int = SCALE_STEPS,
                    shards: int | None = None,
                    parallel_workers: int = 0) -> dict:
    """One tiled scale cell: one graph in process, or the worker pool.

    With ``parallel_workers >= 2`` the replay routes through the
    multiprocess pool over ``shards`` planner shards (default: one per
    :data:`SCALE_AGENTS_PER_SHARD` agents); ``controller_time_s`` is
    then the merged critical-path (slowest-worker CPU) time, so the derived
    ``agent_steps_per_sec`` reflects throughput on dedicated cores
    even when the bench host timeshares one.

    ``peak_rss_mb`` is this cell's own high-water RSS, trace generation
    included: the mark is reset before the cell where the platform
    allows (:func:`_reset_peak_rss`), so it starts from what the process
    still holds (earlier cells' caches included). It counts this
    process only — a parallel cell's worker processes are not in it.
    """
    _reset_peak_rss()
    if shards is None:
        shards = max(2, n_agents // SCALE_AGENTS_PER_SHARD)
    scn = get_scenario(scenario)
    trace = generate_scale_trace(n_agents, n_steps=n_steps,
                                 base_seed=HOTPATH_SEED, scenario=scn)
    wall0 = time.perf_counter()
    result = run_replay(
        trace, SchedulerConfig(policy="metropolis", scenario=scn.name,
                               shards=shards,
                               parallel_workers=parallel_workers))
    wall = time.perf_counter() - wall0
    stats = result.driver_stats
    agent_steps = trace.meta.n_agents * trace.meta.n_steps
    controller = stats.controller_time
    return {
        "scenario": scn.name,
        "n_agents": trace.meta.n_agents,
        "n_steps": trace.meta.n_steps,
        "agent_steps": agent_steps,
        "policy": "metropolis",
        "shards": stats.extra.get("shards", 1),
        "parallel_workers": stats.extra.get("parallel_workers", 0),
        "worker_redispatches": stats.extra.get("worker_redispatches", 0),
        "wall_time_s": wall,
        "controller_time_s": controller,
        "clusters_dispatched": stats.clusters_dispatched,
        "scanned_slots": stats.extra.get("graph_scanned_slots", 0),
        "scanned_slots_per_scan": stats.extra.get("graph_scanned_slots", 0)
        / max(stats.extra.get("graph_scans", 0), 1),
        "peak_rss_mb": _peak_rss_mb(),
        "agent_steps_per_sec": agent_steps / controller if controller
        else float("inf"),
        "wall_agent_steps_per_sec": agent_steps / wall if wall
        else float("inf"),
    }


def run_scale(scenarios: tuple[str, ...] = SCALE_SCENARIOS,
              scale_agents: int = SCALE_AGENTS,
              reference_agents: int = SCALE_REFERENCE_AGENTS,
              n_steps: int = SCALE_STEPS,
              out: Path | str | None = None,
              parallel_workers: int = PARALLEL_WORKERS) -> dict:
    """The scale matrix: reference, serial, and parallel cells.

    Per scenario: a small reference cell, the 100k serial cell, and
    the same 100k workload through the multiprocess pool.
    When ``scale_agents`` exceeds the 100k tier (the 1M nightly), one
    extra ``scale-large`` parallel cell runs at ``scale_agents`` and
    is gated against the 100k parallel cell.

    Each gated cell carries ``scale_ratio`` — its controller
    throughput over its baseline cell — and each parallel cell
    carries ``parallel_ratio`` — parallel over serial ctrl-steps/s on
    the identical workload. Both are within-run ratios, so
    machine-normalized by construction.
    """
    calibration = calibration_score()
    mid_agents = min(scale_agents, SCALE_AGENTS)
    entries = []
    for name in scenarios:
        ref = bench_scale_one(name, reference_agents, n_steps)
        ref["role"] = "reference"
        entries.append(ref)
        big = bench_scale_one(name, mid_agents, n_steps)
        big["role"] = "scale"
        if ref["agent_steps_per_sec"] > 0:
            big["scale_ratio"] = (big["agent_steps_per_sec"]
                                  / ref["agent_steps_per_sec"])
        entries.append(big)
        par = bench_scale_one(name, mid_agents, n_steps,
                              parallel_workers=parallel_workers)
        par["role"] = "scale-parallel"
        if ref["agent_steps_per_sec"] > 0:
            par["scale_ratio"] = (par["agent_steps_per_sec"]
                                  / ref["agent_steps_per_sec"])
        if big["agent_steps_per_sec"] > 0:
            par["parallel_ratio"] = (par["agent_steps_per_sec"]
                                     / big["agent_steps_per_sec"])
        entries.append(par)
        if scale_agents > mid_agents:
            large = bench_scale_one(name, scale_agents, n_steps,
                                    parallel_workers=parallel_workers)
            large["role"] = "scale-large"
            if par["agent_steps_per_sec"] > 0:
                large["scale_ratio"] = (large["agent_steps_per_sec"]
                                        / par["agent_steps_per_sec"])
            entries.append(large)
    report = {
        "benchmark": "hotpath-scale",
        "scenarios": list(scenarios),
        "scale_agents": scale_agents,
        "reference_agents": reference_agents,
        "n_steps": n_steps,
        "agents_per_shard": SCALE_AGENTS_PER_SHARD,
        "parallel_workers": parallel_workers,
        "calibration_ops_per_sec": calibration,
        "calibration_after_ops_per_sec": calibration_score(),
        "entries": entries,
    }
    write_report(report, out)
    return report


def check_scale_report(report: dict) -> list[str]:
    """CI gate for the scale matrix (empty = pass).

    Every scenario must have its reference, serial-scale, and
    parallel-scale cells (plus the large cell when the report was run
    above the 100k tier); each gated cell must hold ``scale_ratio >=``
    :data:`MIN_SCALE_RATIO` against its baseline and clear the raw
    :data:`SCALE_MIN_THROUGHPUT` floor. Parallel cells must
    additionally have split into shards (a planner fallback at scale
    means the widened-gutter workload broke), actually routed through
    the worker pool, and beaten the serial cell by
    :data:`MIN_PARALLEL_RATIO` on ctrl-steps/s.
    """
    failures = []
    required = ["reference", "scale", "scale-parallel"]
    if report.get("scale_agents", SCALE_AGENTS) > SCALE_AGENTS:
        required.append("scale-large")
    roles = {(e["scenario"], e.get("role")) for e in report["entries"]}
    for scenario in report.get("scenarios", []):
        for role in required:
            if (scenario, role) not in roles:
                failures.append(
                    f"{scenario}: {role} cell missing from the report")
    for entry in report["entries"]:
        role = entry.get("role")
        if role not in ("scale", "scale-parallel", "scale-large"):
            continue
        label = f"{entry['scenario']}@{entry['n_agents']}[{role}]"
        baseline = ("the 100k parallel cell" if role == "scale-large"
                    else "the reference cell")
        ratio = entry.get("scale_ratio")
        if ratio is None:
            failures.append(f"{label}: scale_ratio missing")
        elif ratio < MIN_SCALE_RATIO:
            failures.append(
                f"{label}: {ratio:.2f}x of {baseline}'s "
                f"throughput, below the {MIN_SCALE_RATIO:.2f}x scale gate")
        if entry["agent_steps_per_sec"] < SCALE_MIN_THROUGHPUT:
            failures.append(
                f"{label}: {entry['agent_steps_per_sec']:.0f} "
                f"agent-steps/s below the {SCALE_MIN_THROUGHPUT:.0f} "
                f"sanity floor")
        if role in ("scale-parallel", "scale-large"):
            if entry.get("shards", 1) < 2:
                failures.append(
                    f"{label}: region sharding did not engage "
                    f"(shards={entry.get('shards')})")
            if entry.get("parallel_workers", 0) < 2:
                failures.append(
                    f"{label}: multiprocess path did not engage "
                    f"(parallel_workers="
                    f"{entry.get('parallel_workers', 0)})")
        if role == "scale-parallel":
            pratio = entry.get("parallel_ratio")
            if pratio is None:
                failures.append(f"{label}: parallel_ratio missing")
            elif pratio < MIN_PARALLEL_RATIO:
                failures.append(
                    f"{label}: parallel/serial ctrl-steps/s ratio "
                    f"{pratio:.2f}x below the "
                    f"{MIN_PARALLEL_RATIO:.2f}x gate")
    return failures


def scale_ratio_lines(report: dict) -> list[str]:
    """Human-readable parallel/serial ctrl-steps/s lines, one per
    parallel cell — printed by the CLI under ``--scale --check``."""
    serial = {(e["scenario"], e["n_agents"]): e["agent_steps_per_sec"]
              for e in report["entries"] if e.get("role") == "scale"}
    lines = []
    for e in report["entries"]:
        if "parallel_ratio" not in e:
            continue
        base = serial.get((e["scenario"], e["n_agents"]), 0.0)
        lines.append(
            f"{e['scenario']}@{e['n_agents']}: parallel "
            f"{e['agent_steps_per_sec']:.0f} ctrl-steps/s "
            f"({e['parallel_workers']} workers) vs serial {base:.0f} "
            f"-> {e['parallel_ratio']:.2f}x")
    return lines


def format_scale_report(report: dict) -> str:
    """Fixed-width table for the scale matrix."""
    header = (f"{'scenario':<14}{'agents':>9}{'steps':>7}{'shards':>7}"
              f"{'workers':>8}{'ctrl-steps/s':>14}{'wall-steps/s':>14}"
              f"{'slots/scan':>11}{'rss-mb':>9}{'ratio':>8}"
              f"{'par-ratio':>10}")
    lines = [header, "-" * len(header)]
    for e in report["entries"]:
        ratio = e.get("scale_ratio")
        pratio = e.get("parallel_ratio")
        lines.append(
            f"{e['scenario']:<14}{e['n_agents']:>9}{e['n_steps']:>7}"
            f"{e['shards']:>7}"
            f"{e.get('parallel_workers', 0):>8}"
            f"{e['agent_steps_per_sec']:>14.0f}"
            f"{e['wall_agent_steps_per_sec']:>14.0f}"
            f"{e['scanned_slots_per_scan']:>11.1f}"
            f"{e['peak_rss_mb']:>9.0f}"
            + (f"{ratio:>7.2f}x" if ratio is not None else f"{'-':>8}")
            + (f"{pratio:>9.2f}x" if pratio is not None
               else f"{'-':>10}"))
    return "\n".join(lines)


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


def run_hotpath(scenarios: list[str] | None = None,
                agent_counts: tuple[int, ...] = AGENT_COUNTS,
                policy: str = "metropolis",
                out: Path | str | None = None,
                spec: bool = False) -> dict:
    """Benchmark every (scenario, scale) cell; write/return the report.

    ``spec`` attaches the speculative-mode win/loss column to every
    cell (see :func:`bench_one`). :func:`bench_generation`'s block is
    measured first, while the shared path planners are cold.
    """
    names = scenarios or scenario_names()
    calibration = calibration_score()
    generated = bench_generation(names)
    entries = [bench_one(name, n, policy=policy, spec=spec)
               for name in names for n in sorted(agent_counts)]
    report = {
        "benchmark": "hotpath",
        "policy": policy,
        "agent_counts": sorted(agent_counts),
        "scenarios": list(names),
        "calibration_ops_per_sec": calibration,
        "calibration_after_ops_per_sec": calibration_score(),
        "spec": spec,
        "generation": generated,
        "entries": entries,
    }
    write_report(report, out)
    return report


def check_report(report: dict) -> list[str]:
    """The CI gate: returns human-readable failures (empty = pass).

    Per scenario: a ``generation`` row at or above
    :data:`MIN_GENERATION_THROUGHPUT`, a cell per entry of the report's
    ``agent_counts``, and a :data:`COUNT_CEILINGS` row. Per cell: every
    counter of that row at or under its ceiling (a cell missing one
    fails loudly) and controller throughput above
    :data:`MIN_THROUGHPUT`. A ``spec`` report additionally needs every
    cell's ``spec_speedup`` at or above :data:`MIN_SPEC_RATIO` and one
    cell strictly above 1.0 — speculation has to win somewhere or it is
    dead weight.
    """
    failures = []
    rates = {g["scenario"]: g["agent_steps_per_sec"]
             for g in report.get("generation", [])}
    present = {(e["scenario"], e["n_agents"]) for e in report["entries"]}
    for scenario in report.get("scenarios", []):
        if scenario not in rates:
            failures.append(
                f"{scenario}: generation row missing from the report")
        elif rates[scenario] < MIN_GENERATION_THROUGHPUT:
            failures.append(
                f"{scenario}: cold full-day generation at "
                f"{rates[scenario]:.0f} agent-steps/s, below the "
                f"{MIN_GENERATION_THROUGHPUT:.0f} floor")
        if scenario not in COUNT_CEILINGS:
            failures.append(f"{scenario}: no COUNT_CEILINGS row")
        for count in report.get("agent_counts", ()):
            if (scenario, count) not in present:
                failures.append(
                    f"{scenario}@{count}: required matrix cell missing "
                    f"from the report")
    spec = report.get("spec", False)
    spec_wins = 0
    for entry in report["entries"]:
        label = (f"{entry['scenario']}@{entry['n_agents']} "
                 f"({entry['policy']})")
        tput = entry["agent_steps_per_sec"]
        if tput < MIN_THROUGHPUT:
            failures.append(
                f"{label}: {tput:.0f} agent-steps/s below the "
                f"{MIN_THROUGHPUT:.0f} floor")
        for counter, ceiling in COUNT_CEILINGS.get(
                entry["scenario"], {}).items():
            value = entry.get(counter)
            if value is None:
                failures.append(
                    f"{label}: {counter} missing from the report entry")
            elif value > ceiling:
                failures.append(
                    f"{label}: {counter} {value:.4g} above its "
                    f"{ceiling:.4g} ceiling")
        if spec:
            ratio = entry.get("spec_speedup")
            if ratio is None:
                failures.append(
                    f"{label}: spec_speedup missing from the report "
                    f"entry")
            elif ratio < MIN_SPEC_RATIO:
                failures.append(
                    f"{label}: speculative mode at {ratio:.4f}x of "
                    f"plain OOO, below the {MIN_SPEC_RATIO:.2f}x "
                    f"no-regression bar")
            elif ratio > 1.0:
                spec_wins += 1
    if spec and report["entries"] and not spec_wins:
        failures.append(
            "speculative mode wins on no cell of the report "
            "(spec_speedup <= 1.0 everywhere) — the mode regressed "
            "into dead weight")
    return failures


def format_report(report: dict) -> str:
    """Fixed-width table for terminal output.

    The ``spec`` column is speculative mode's virtual-time win ratio
    over plain OOO for the cell (>1 = speculation wins), shown when
    the report carries speculation cells.
    """
    with_spec = any("spec_speedup" in e for e in report["entries"])
    header = (f"{'scenario':<14}{'agents':>7}{'steps':>7}"
              f"{'ctrl-steps/s':>14}{'wall-steps/s':>14}"
              f"{'clustering':>11}{'graph':>9}{'dispatch':>9}"
              f"{'rounds':>8}{'ev/cl':>7}{'all-ev/cl':>10}"
              + (f"{'spec':>9}" if with_spec else ""))
    lines = [header, "-" * len(header)]
    for e in report["entries"]:
        spec = e.get("spec_speedup")
        lines.append(
            f"{e['scenario']:<14}{e['n_agents']:>7}{e['n_steps']:>7}"
            f"{e['agent_steps_per_sec']:>14.0f}"
            f"{e['wall_agent_steps_per_sec']:>14.0f}"
            f"{e['time_clustering_s']:>10.3f}s"
            f"{e['time_graph_s']:>8.3f}s"
            f"{e['time_dispatch_s']:>8.3f}s"
            f"{e['controller_rounds']:>8}"
            f"{e.get('kernel_events_per_cluster', 0.0):>7.2f}"
            f"{e.get('events_total_per_cluster', 0.0):>10.2f}"
            + ("" if not with_spec else
               f"{spec:>8.4f}x" if spec is not None else f"{'-':>9}"))
    return "\n".join(lines)
