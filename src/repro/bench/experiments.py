"""Per-figure/table experiment definitions (the paper's §4 evaluation).

Every entry in :data:`EXPERIMENTS` regenerates one figure or table: same
workloads (SmallVille days, busy/quiet hours, concatenated villes), same
deployments (L4/Llama-3-8B, A100/Llama-3-70B TP4, A100/Mixtral TP2), same
comparisons (single-thread / parallel-sync / metropolis / oracle plus the
critical and no-dependency bounds). ``full=True`` runs paper scale;
the default quick scale keeps every comparison but shrinks windows and
agent counts so the whole suite fits in CI.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable

from ..config import STEPS_PER_HOUR, DependencyConfig, SchedulerConfig
from ..core import run_replay
from ..instrument import render_ascii_timeline
from ..scenarios import get_scenario
from ..trace import cached_day_trace, compute_stats, generate_concatenated_trace
from .report import format_series, format_table
from .runner import bounds_for, hour_window, run_policies, serving_for

def full_mode_default() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


def scenario_default() -> str:
    """Workload scenario, overridable via ``REPRO_BENCH_SCENARIO``."""
    return os.environ.get("REPRO_BENCH_SCENARIO", "smallville")


@dataclass
class ExperimentResult:
    name: str
    #: Human-readable table(s), printed by benches and the CLI.
    table: str
    #: Raw numbers for tests and the paper-figure benches.
    data: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Figure 4: full-day SmallVille (25 agents)
# ---------------------------------------------------------------------------

def _fullday_experiment(name: str, platform: str, gpu_counts_full,
                        gpu_counts_quick, full: bool,
                        scenario: str) -> ExperimentResult:
    gpus = gpu_counts_full if full else gpu_counts_quick
    scn = get_scenario(scenario)
    day = cached_day_trace(seed=0, scenario=scn)
    # Quick mode replays a 3-hour slice around the busy hour.
    trace = day if full else hour_window(day, scn.busy_hour - 1, n_hours=3)
    policies = ["single-thread", "parallel-sync", "metropolis", "oracle"]
    rows = []
    data: dict = {"gpus": list(gpus), "policies": {}, "bounds": {},
                  "scenario": scn.name}
    for policy in policies:
        data["policies"][policy] = {}
    for num_gpus in gpus:
        outcomes = run_policies(trace, platform, num_gpus, policies)
        bounds = bounds_for(trace, platform, num_gpus,
                            include_no_dependency=False)
        data["bounds"][num_gpus] = bounds
        for policy in policies:
            o = outcomes[policy]
            data["policies"][policy][num_gpus] = {
                "time": o.completion_time,
                "parallelism": o.achieved_parallelism,
            }
        m = outcomes["metropolis"]
        rows.extend(
            [num_gpus, p, round(outcomes[p].completion_time, 1),
             round(outcomes[p].achieved_parallelism, 2),
             f"{outcomes[p].completion_time / m.completion_time:.2f}x"]
            for p in policies)
        rows.append([num_gpus, "critical", round(bounds["critical"], 1),
                     "-", "-"])
    table = format_table(
        f"{name}: end-to-end completion time "
        f"({'full day' if full else '3-hour window'}, "
        f"{trace.meta.n_agents} agents, {scn.name}, {platform})",
        ["gpus", "policy", "time (s)", "parallelism", "vs metropolis"],
        rows,
        note="paper: metropolis 2.38-3.25x over single-thread, 1.44-1.67x "
             "over parallel-sync, 74.7-82.9% of oracle (L4); parallelism "
             "0.95 / 1.94 / 3.46 on 8 GPUs")
    return ExperimentResult(name, table, data)


def fig4a(full: bool = False,
          scenario: str | None = None) -> ExperimentResult:
    """Fig. 4a: Llama-3-8B on 1-8 NVIDIA L4 GPUs."""
    return _fullday_experiment("fig4a", "l4-8b", (1, 2, 4, 8), (1, 8), full,
                               scenario or scenario_default())


def fig4b(full: bool = False,
          scenario: str | None = None) -> ExperimentResult:
    """Fig. 4b: Llama-3-70B (TP4) on 4/8 NVIDIA A100 GPUs."""
    return _fullday_experiment("fig4b", "a100-70b", (4, 8), (4,), full,
                               scenario or scenario_default())


def fig4c(full: bool = False,
          scenario: str | None = None) -> ExperimentResult:
    """Fig. 4c: LLM query distribution over the simulated day."""
    scn = get_scenario(scenario or scenario_default())
    day = cached_day_trace(seed=0, scenario=scn)
    stats = compute_stats(day)
    per_hour = [int(x) for x in stats.calls_per_hour]
    rows = [[h, per_hour[h]] for h in range(24)]
    busy, quiet = scn.busy_hour, scn.quiet_hour
    table = format_table(
        f"fig4c: LLM calls per simulated hour "
        f"({day.meta.n_agents} agents, one {scn.name} day)",
        ["hour", "calls"], rows,
        note=f"total {stats.total_calls} (paper ~56.7k on smallville); "
             f"busy {busy}h {per_hour[busy]} (~5k); quiet {quiet}h "
             f"{per_hour[quiet]} (~800); 1am-4am asleep: {per_hour[1:4]}")
    return ExperimentResult("fig4c", table, {
        "calls_per_hour": per_hour,
        "total_calls": stats.total_calls,
        "mean_input_tokens": stats.mean_input_tokens,
        "mean_output_tokens": stats.mean_output_tokens,
        "scenario": scn.name,
    })


# ---------------------------------------------------------------------------
# Figures 5-7: scaling to 1000 agents (busy / quiet hours)
# ---------------------------------------------------------------------------

def _scaling_experiment(name: str, platform: str, gpu_counts,
                        full: bool, scenario: str) -> ExperimentResult:
    scn = get_scenario(scenario)
    override = os.environ.get("REPRO_BENCH_AGENTS", "")
    if override:
        agent_counts = tuple(int(x) for x in override.split(","))
    else:
        agent_counts = (25, 100, 500, 1000) if full else (25, 100)
    hours = {"busy": scn.busy_hour, "quiet": scn.quiet_hour}
    policies = ["parallel-sync", "metropolis", "oracle"]
    data: dict = {"agents": list(agent_counts), "series": {},
                  "scenario": scn.name}
    tables = []
    for label, hour in hours.items():
        for num_gpus in gpu_counts:
            series: dict[str, list[float]] = {p: [] for p in policies}
            series["gpu-limit"] = []
            speedups = []
            for n_agents in agent_counts:
                day = generate_concatenated_trace(n_agents, scenario=scn)
                trace = hour_window(day, hour)
                outcomes = run_policies(trace, platform, num_gpus, policies)
                bounds = bounds_for(trace, platform, num_gpus)
                for p in policies:
                    series[p].append(outcomes[p].completion_time)
                series["gpu-limit"].append(bounds["gpu-limit"])
                speedups.append(outcomes["parallel-sync"].completion_time
                                / outcomes["metropolis"].completion_time)
            key = f"{label}-{num_gpus}gpu"
            data["series"][key] = {k: list(v) for k, v in series.items()}
            data["series"][key]["metropolis_speedup"] = speedups
            tables.append(format_series(
                f"{name} ({label} hour, {num_gpus} GPUs, {scn.name}, "
                f"{platform}): completion time (s) vs agents",
                agent_counts, series))
            tables.append("metropolis speedup over parallel-sync: "
                          + ", ".join(f"{n}: {s:.2f}x" for n, s in
                                      zip(agent_counts, speedups)))
    return ExperimentResult(name, "\n\n".join(tables), data)


def fig5(full: bool = False,
         scenario: str | None = None) -> ExperimentResult:
    """Fig. 5: busy/quiet hour scaling, Llama-3-8B on L4s."""
    return _scaling_experiment("fig5", "l4-8b", (1, 8) if full else (1,),
                               full, scenario or scenario_default())


def fig6(full: bool = False,
         scenario: str | None = None) -> ExperimentResult:
    """Fig. 6: busy/quiet hour scaling, Llama-3-70B on 8 A100s."""
    return _scaling_experiment("fig6", "a100-70b", (8,), full,
                               scenario or scenario_default())


def fig7(full: bool = False,
         scenario: str | None = None) -> ExperimentResult:
    """Fig. 7: busy/quiet hour scaling, Mixtral-8x7B on 8 A100s."""
    return _scaling_experiment("fig7", "a100-mixtral", (8,), full,
                               scenario or scenario_default())


# ---------------------------------------------------------------------------
# Table 1: priority-scheduling ablation
# ---------------------------------------------------------------------------

def table1(full: bool = False,
           scenario: str | None = None) -> ExperimentResult:
    """Table 1: priority-scheduling on/off for metropolis and oracle.

    Priority acts through the contended resources of the paper's
    architecture: the finite worker pool (ready-queue order) and the
    serving engine's waiting queue. The pool is sized per §3.1 ("adjusted
    based on available CPU resources") so that it binds under the
    500-agent busy-hour load, as on the authors' testbed.
    """
    scn = get_scenario(scenario or scenario_default())
    n_agents = 500 if full else 100
    gpu_counts = (4, 8) if full else (4,)
    # Sized so the §3.1 worker pool just binds under the busy-hour load
    # (the regime of the authors' CPU-constrained testbed): an unbounded
    # pool hides the priority effect.
    num_workers = 24 if full else 12
    day = generate_concatenated_trace(n_agents, scenario=scn)
    trace = hour_window(day, scn.busy_hour)
    data: dict = {}
    for policy in ("metropolis", "oracle"):
        for num_gpus in gpu_counts:
            with_priority = run_policies(
                trace, "l4-8b", num_gpus, [policy], priority=True,
                num_workers=num_workers)[policy]
            without = run_policies(
                trace, "l4-8b", num_gpus, [policy], priority=False,
                num_workers=num_workers)[policy]
            speedup = (without.completion_time
                       / with_priority.completion_time - 1.0) * 100.0
            data[f"{policy}-{num_gpus}"] = {
                "with": with_priority.completion_time,
                "without": without.completion_time,
                "speedup_pct": speedup,
                "parallelism_with": with_priority.achieved_parallelism,
                "parallelism_without": without.achieved_parallelism,
            }
    rows = []
    for key, row in data.items():
        policy, num_gpus = key.rsplit("-", 1)
        # Does the upper bound hold at this GPU count, w/ and w/o
        # priority? Shown on both policies' rows, not asserted here.
        metro, oracle = data[f"metropolis-{num_gpus}"], \
            data[f"oracle-{num_gpus}"]
        row["oracle_le_metropolis"] = [oracle[k] <= metro[k]
                                       for k in ("with", "without")]
        rows.append([policy, int(num_gpus), round(row["with"], 1),
                     round(row["without"], 1), f"{row['speedup_pct']:.2f}%",
                     round(row["parallelism_with"], 1),
                     round(row["parallelism_without"], 1),
                     " / ".join("yes" if ok else "NO"
                                for ok in row["oracle_le_metropolis"])])
    table = format_table(
        f"table1: priority scheduling ({n_agents} agents, busy hour, "
        f"{scn.name}, L4)",
        ["policy", "gpus", "w/ priority (s)", "w/o priority (s)",
         "speedup", "par w/", "par w/o", "oracle <= metro (w/ / w/o)"],
        rows,
        note="paper (500 agents): metropolis gains 3.84% @4 GPUs, 15.7% "
             "@8 GPUs; oracle ~0%; parallelism 41.9->50.9 vs 69.4->69.9")
    return ExperimentResult("table1", table, data)


# ---------------------------------------------------------------------------
# Figures 1-2: trace anatomy
# ---------------------------------------------------------------------------

def fig1(full: bool = False,
         scenario: str | None = None) -> ExperimentResult:
    """Fig. 1: per-agent LLM invocation streams under parallel-sync."""
    scn = get_scenario(scenario or scenario_default())
    day = cached_day_trace(seed=0, scenario=scn)
    start = scn.busy_hour * 360
    trace = day.window(start, start + (60 if not full else 180))
    result = run_replay(trace, SchedulerConfig(policy="parallel-sync",
                                               scenario=scn.name),
                        serving_for("l4-8b", 1), collect_timeline=True)
    art = render_ascii_timeline(
        result.timeline.events, trace.meta.n_agents, width=100,
        step_marks=result.step_completion_times)
    note = (f"achieved parallelism {result.achieved_parallelism:.2f} "
            f"(paper: ~1.94 average concurrent LLM queries)")
    return ExperimentResult("fig1", art + "\n" + note, {
        "parallelism": result.achieved_parallelism,
        "events": len(result.timeline.events),
    })


def fig2(full: bool = False,
         scenario: str | None = None) -> ExperimentResult:
    """§2.2 dependency statistics behind Figure 2."""
    from ..core.oracle import mean_dependency_count
    scn = get_scenario(scenario or scenario_default())
    day = cached_day_trace(seed=0, scenario=scn)
    trace = day if full else hour_window(day, scn.busy_hour - 1, n_hours=3)
    mean_deps = mean_dependency_count(trace)
    table = format_table(
        "fig2: real vs enforced dependencies",
        ["quantity", "value"],
        [["agents (all-to-all under global sync)", trace.meta.n_agents],
         ["mean real dependency agents (incl. self)", round(mean_deps, 2)]],
        note="paper: 1.85 real dependency agents vs 25 enforced")
    return ExperimentResult("fig2", table, {"mean_dependency_agents": mean_deps})


# ---------------------------------------------------------------------------
# Ablations (design choices called out in docs/ARCHITECTURE.md / §6)
# ---------------------------------------------------------------------------

def _busy_hour_sweep(scenario: str | None, values, scheduler=None,
                     serving=None) -> list[tuple[object, object]]:
    """One metropolis replay of the scenario's busy hour on one L4 per
    value of one axis: ``scheduler(value)`` / ``serving(value)`` give
    the config fields the value sets. Returns ``(value, result)``
    pairs."""
    scn = get_scenario(scenario or scenario_default())
    start = scn.busy_hour * STEPS_PER_HOUR
    trace = cached_day_trace(seed=0, scenario=scn).window(
        start, start + STEPS_PER_HOUR)
    base = serving_for("l4-8b", 1)
    return [(value, run_replay(
        trace, SchedulerConfig(policy="metropolis", scenario=scn.name,
                               **(scheduler(value) if scheduler else {})),
        replace(base, **(serving(value) if serving else {}))))
        for value in values]


def ablation_metric(full: bool = False,
                    scenario: str | None = None) -> ExperimentResult:
    """Distance-metric choice (§6 generality): effect on OOO replay."""
    runs = _busy_hour_sweep(
        scenario, ("euclidean", "chebyshev", "manhattan"),
        scheduler=lambda m: {"dependency": DependencyConfig(metric=m)})
    table = format_table(
        "ablation: distance metric (metropolis, busy hour, 1 L4)",
        ["metric", "time (s)", "parallelism", "max spread"],
        [[metric, round(r.completion_time, 1),
          round(r.achieved_parallelism, 2), r.driver_stats.max_step_spread]
         for metric, r in runs],
        note="chebyshev under-approximates euclidean distance on the grid "
             "(stricter rules); manhattan over-approximates (looser)")
    return ExperimentResult("ablation_metric", table,
                            {m: r.completion_time for m, r in runs})


def ablation_radius(full: bool = False,
                    scenario: str | None = None) -> ExperimentResult:
    """Sensitivity of OOO benefit to the perception radius."""
    runs = _busy_hour_sweep(
        scenario, (2.0, 4.0, 8.0, 16.0),
        scheduler=lambda p: {"dependency": DependencyConfig(radius_p=p)})
    table = format_table(
        "ablation: perception radius (metropolis, busy hour, 1 L4)",
        ["radius_p", "time (s)", "parallelism", "mean cluster"],
        [[radius, round(r.completion_time, 1),
          round(r.achieved_parallelism, 2),
          round(r.driver_stats.mean_cluster_size, 2)]
         for radius, r in runs],
        note="larger radii couple more agents -> less OOO headroom; the "
             "trace itself was generated at radius 4 (GenAgent)")
    return ExperimentResult("ablation_radius", table,
                            {p: r.completion_time for p, r in runs})


def ablation_workers(full: bool = False,
                     scenario: str | None = None) -> ExperimentResult:
    """Worker-pool cap (§3.6 scalability of the controller/worker split)."""
    runs = [(w or "unbounded", r) for w, r in _busy_hour_sweep(
        scenario, (1, 2, 8, 0), scheduler=lambda w: {"num_workers": w})]
    table = format_table(
        "ablation: worker pool size (metropolis, busy hour, 1 L4)",
        ["workers", "time (s)", "parallelism"],
        [[label, round(r.completion_time, 1),
          round(r.achieved_parallelism, 2)] for label, r in runs],
        note="too few workers serialize clusters and waste the GPU")
    return ExperimentResult("ablation_workers", table,
                            {str(w): r.completion_time for w, r in runs})


def ablation_interactive(full: bool = False,
                         scenario: str | None = None) -> ExperimentResult:
    """§6 hybrid deployment: latency for a player-adjacent agent.

    Marks one agent latency-critical: its clusters and LLM requests
    preempt step-priority order. Reports that agent's per-step latency
    distribution against the plain OOO run, and the throughput cost to
    the background simulation — the interactive/offline balance the
    paper's future-work section describes.
    """
    import numpy as np

    # Interactive latency only matters under contention: saturate the
    # worker pool and GPU with many background agents.
    scn = get_scenario(scenario or scenario_default())
    n_agents = 500 if full else 100
    num_workers = 32 if full else 12
    day = generate_concatenated_trace(n_agents, scenario=scn)
    trace = hour_window(day, scn.busy_hour)
    serving = serving_for("l4-8b", 1)
    rows = []
    data = {}
    for label, boost in (("background", False), ("interactive", True)):
        scheduler = SchedulerConfig(policy="metropolis",
                                    interactive_agents=(0,),
                                    interactive_boost=boost,
                                    num_workers=num_workers,
                                    scenario=scn.name)
        result = run_replay(trace, scheduler, serving)
        lat = result.driver_stats.extra["interactive_latencies"] or [0.0]
        mean_lat = float(np.mean(lat))
        p95 = float(np.percentile(lat, 95))
        data[label] = {"completion": result.completion_time,
                       "mean_latency": mean_lat, "p95_latency": p95}
        rows.append([label, round(result.completion_time, 1),
                     round(mean_lat, 3), round(p95, 3)])
    table = format_table(
        "ablation: interactive agent priority (metropolis, busy hour, 1 L4)",
        ["mode", "total time (s)", "mean step lat (s)", "p95 (s)"],
        rows,
        note="§6: latency-critical foreground agents preempt background "
             "throughput scheduling")
    return ExperimentResult("ablation_interactive", table, data)


def ablation_prefix_cache(full: bool = False,
                          scenario: str | None = None) -> ExperimentResult:
    """§4.1's note: SGLang's prefix cache gives ~20% throughput.

    Replays the busy hour with the common-prefix cache modelled at
    several hit rates (GenAgent prompts share persona/world preambles).
    """
    runs = _busy_hour_sweep(
        scenario, (0.0, 0.3, 0.6),
        serving=lambda hit: {"prefix_cache_hit_rate": hit})
    data = {hit: r.completion_time for hit, r in runs}
    table = format_table(
        "ablation: common-prefix cache hit rate (metropolis, busy hour, "
        "1 L4)",
        ["hit rate", "time (s)", "speedup"],
        [[f"{hit:.0%}", round(r.completion_time, 1),
          f"{data[0.0] / r.completion_time:.2f}x"] for hit, r in runs],
        note="paper: enabling SGLang's cache gave ~20% throughput across "
             "settings (they benchmark with it off for stability)")
    return ExperimentResult("ablation_prefix_cache", table, data)


EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig1": fig1,
    "fig2": fig2,
    "fig4a": fig4a,
    "fig4b": fig4b,
    "fig4c": fig4c,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "table1": table1,
    "ablation_metric": ablation_metric,
    "ablation_radius": ablation_radius,
    "ablation_workers": ablation_workers,
    "ablation_interactive": ablation_interactive,
    "ablation_prefix_cache": ablation_prefix_cache,
}


def run_experiment(name: str, full: bool | None = None,
                   scenario: str | None = None) -> ExperimentResult:
    """Run one named experiment (quick scale unless ``full``).

    ``scenario`` selects the registered workload; ``None`` falls back to
    ``REPRO_BENCH_SCENARIO`` and then ``smallville``.
    """
    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}")
    if full is None:
        full = full_mode_default()
    return EXPERIMENTS[name](full, scenario=scenario)
