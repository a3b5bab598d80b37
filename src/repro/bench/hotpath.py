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
cluster), and every (scenario, agent-count) cell the report ran must be
present. The timings — controller agent-steps/s per
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
``peak_rss_mb`` and ``bytes_per_agent`` so memory blowups surface in
the report.
"""

from __future__ import annotations

import time
from pathlib import Path

from ..config import SchedulerConfig
from ..scenarios import get_scenario, scenario_names
from ..trace import (generate_concatenated_trace, generate_trace,
                     trace_fingerprint)
from ..trace.generator import generate_scale_trace
from .report import (Column, _peak_rss_mb, _reset_peak_rss, format_table,
                     missing_cells, run_report, timed_cell)

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
    # 0.0760 / 1.405 / 17.16 / 0.630
    "market-town": _ceilings(0.095, 1.76, 21.5, 0.788),
    # 0.0704 / 2.576 / 26.74 / 0.885
    "metro-grid": _ceilings(0.088, 3.21, 33.5, 1.106),
    # 0.0683 / 0.945 / 32.07 / 0.421
    "smallville": _ceilings(0.0853, 1.19, 40.1, 0.537),
    # 0.1184 / 0.870 / 22.75 / 0.307
    "social-graph": _ceilings(0.148, 1.04, 28.5, 0.384),
}
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
              policy: str = "metropolis") -> dict:
    """Replay one (scenario, scale) cell; returns its report entry."""
    scn = get_scenario(scenario)
    trace = hotpath_trace(scn, n_agents)
    result, entry = timed_cell(
        trace, SchedulerConfig(policy=policy, scenario=scn.name))
    stats = result.driver_stats
    clusters = max(stats.clusters_dispatched, 1)
    kernel_events = stats.extra.get("kernel_events", 0)
    return {
        **entry,
        "time_clustering_s": stats.time_clustering,
        "time_graph_s": stats.time_graph,
        "time_dispatch_s": stats.time_dispatch,
        "controller_rounds": stats.controller_rounds,
        "mean_cluster_size": stats.mean_cluster_size,
        "kernel_events": kernel_events,
        "kernel_events_per_cluster": kernel_events / clusters,
        "events_total_per_cluster":
            stats.extra.get("kernel_events_total", 0) / clusters,
        "scans_per_agent_step":
            stats.extra.get("graph_scans", 0) / entry["agent_steps"],
        "completion_time_s": result.completion_time,
    }


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
    ``bytes_per_agent`` is that mark over the cell's agents (report
    only, no gate).
    """
    _reset_peak_rss()
    if shards is None:
        shards = max(2, n_agents // SCALE_AGENTS_PER_SHARD)
    scn = get_scenario(scenario)
    trace = generate_scale_trace(n_agents, n_steps=n_steps,
                                 base_seed=HOTPATH_SEED, scenario=scn)
    result, entry = timed_cell(
        trace, SchedulerConfig(policy="metropolis", scenario=scn.name,
                               shards=shards,
                               parallel_workers=parallel_workers))
    extra = result.driver_stats.extra
    peak_mb = _peak_rss_mb()
    return {**entry,
            "shards": extra.get("shards", 1),
            "parallel_workers": extra.get("parallel_workers", 0),
            "worker_redispatches": extra.get("worker_redispatches", 0),
            "peak_rss_mb": peak_mb,
            "bytes_per_agent": peak_mb * 2 ** 20 / n_agents}


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
    mid_agents = min(scale_agents, SCALE_AGENTS)

    def cell(name, role, n_agents, workers, baseline):
        entry = bench_scale_one(name, n_agents, n_steps,
                                parallel_workers=workers)
        entry["role"] = role
        if baseline is not None and baseline["agent_steps_per_sec"] > 0:
            entry["scale_ratio"] = (entry["agent_steps_per_sec"]
                                    / baseline["agent_steps_per_sec"])
        return entry

    def measure() -> dict:
        entries = []
        for name in scenarios:
            ref = cell(name, "reference", reference_agents, 0, None)
            big = cell(name, "scale", mid_agents, 0, ref)
            par = cell(name, "scale-parallel", mid_agents,
                       parallel_workers, ref)
            if big["agent_steps_per_sec"] > 0:
                par["parallel_ratio"] = (par["agent_steps_per_sec"]
                                         / big["agent_steps_per_sec"])
            entries += [ref, big, par]
            if scale_agents > mid_agents:
                entries.append(cell(name, "scale-large", scale_agents,
                                    parallel_workers, par))
        return {"entries": entries}

    return run_report(
        "hotpath-scale", out, measure, scenarios=list(scenarios),
        scale_agents=scale_agents, reference_agents=reference_agents,
        n_steps=n_steps, agents_per_shard=SCALE_AGENTS_PER_SHARD,
        parallel_workers=parallel_workers)


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
    required = ["reference", "scale", "scale-parallel"]
    if report.get("scale_agents", SCALE_AGENTS) > SCALE_AGENTS:
        required.append("scale-large")
    failures = missing_cells(report, "role", required)
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


#: The terminal tables: hot-path matrix, scale matrix, and the scale
#: gate's parallel-against-serial rows.
HOTPATH_COLUMNS = (
    Column("scenario", "<14"), Column("agents", ">7", key="n_agents"),
    Column("steps", ">7", key="n_steps"),
    Column("ctrl-steps/s", ">14", "{:.0f}", "agent_steps_per_sec"),
    Column("wall-steps/s", ">14", "{:.0f}", "wall_agent_steps_per_sec"),
    Column("clustering", ">11", "{:.3f}s", "time_clustering_s"),
    Column("graph", ">9", "{:.3f}s", "time_graph_s"),
    Column("dispatch", ">9", "{:.3f}s", "time_dispatch_s"),
    Column("rounds", ">8", key="controller_rounds"),
    Column("ev/cl", ">7", "{:.2f}", "kernel_events_per_cluster"),
    Column("all-ev/cl", ">10", "{:.2f}", "events_total_per_cluster"))
SCALE_COLUMNS = (
    Column("scenario", "<14"), Column("agents", ">9", key="n_agents"),
    Column("steps", ">7", key="n_steps"), Column("shards", ">7"),
    Column("workers", ">8", key="parallel_workers"),
    Column("ctrl-steps/s", ">14", "{:.0f}", "agent_steps_per_sec"),
    Column("wall-steps/s", ">14", "{:.0f}", "wall_agent_steps_per_sec"),
    Column("slots/scan", ">11", "{:.1f}", "scanned_slots_per_scan"),
    Column("rss-mb", ">9", "{:.0f}", "peak_rss_mb"),
    Column("B/agent", ">9", "{:.0f}", "bytes_per_agent"),
    Column("ratio", ">8", "{:.2f}x", "scale_ratio"),
    Column("par-ratio", ">10", "{:.2f}x", "parallel_ratio"))
RATIO_COLUMNS = (
    Column("scenario", "<14"), Column("agents", ">9", key="n_agents"),
    Column("workers", ">8", key="parallel_workers"),
    Column("parallel", ">14", "{:.0f}", "agent_steps_per_sec"),
    Column("serial", ">14", "{:.0f}"),
    Column("par-ratio", ">10", "{:.2f}x", "parallel_ratio"))


def scale_ratio_lines(report: dict) -> list[str]:
    """Parallel against serial ctrl-steps/s, one row per parallel
    cell — printed by the CLI under ``--scale --check``."""
    serial = {(e["scenario"], e["n_agents"]): e["agent_steps_per_sec"]
              for e in report["entries"] if e.get("role") == "scale"}
    rows = [{**e, "serial": serial.get((e["scenario"], e["n_agents"]), 0.0)}
            for e in report["entries"] if "parallel_ratio" in e]
    return format_table(None, RATIO_COLUMNS, rows).splitlines()


def format_scale_report(report: dict) -> str:
    """Fixed-width table for the scale matrix."""
    return format_table(None, SCALE_COLUMNS, report["entries"])


def run_hotpath(scenarios: list[str] | None = None,
                agent_counts: tuple[int, ...] = AGENT_COUNTS,
                policy: str = "metropolis",
                out: Path | str | None = None) -> dict:
    """Benchmark every (scenario, scale) cell; write/return the report.

    :func:`bench_generation`'s block is measured first, while the shared
    path planners are cold.
    """
    names = scenarios or scenario_names()
    return run_report(
        "hotpath", out,
        lambda: {"generation": bench_generation(names),
                 "entries": [bench_one(name, n, policy=policy)
                             for name in names
                             for n in sorted(agent_counts)]},
        policy=policy, agent_counts=sorted(agent_counts),
        scenarios=list(names))


def check_report(report: dict) -> list[str]:
    """The CI gate: returns human-readable failures (empty = pass).

    Per scenario: a ``generation`` row at or above
    :data:`MIN_GENERATION_THROUGHPUT`, a cell per entry of the report's
    ``agent_counts``, and a :data:`COUNT_CEILINGS` row. Per cell: every
    counter of that row at or under its ceiling (a cell missing one
    fails loudly) and controller throughput above
    :data:`MIN_THROUGHPUT`.
    """
    failures = missing_cells(report, "n_agents",
                             report.get("agent_counts", ()))
    rates = {g["scenario"]: g["agent_steps_per_sec"]
             for g in report.get("generation", [])}
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
    return failures


def format_report(report: dict) -> str:
    """Fixed-width table for terminal output."""
    return format_table(None, HOTPATH_COLUMNS, report["entries"])
