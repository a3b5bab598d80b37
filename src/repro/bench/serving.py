"""End-to-end serving benchmark: tokens/s + KV counters per scenario.

Where ``repro-bench hotpath`` measures the controller alone, this matrix
measures what the paper actually reports (Fig. 4-7): end-to-end
throughput of the whole stack — OOO scheduler, cluster-granular fluid
executor, and the simulated serving engine — on each registered world's
declared deployment (its :class:`~repro.serving.ServingProfile`). Four
cells per scenario:

* ``fluid`` — the headline run: fluid replicas at the profile's full KV
  budget, invocation-distance retention on.
* ``kv-distance`` — the profile's ``kv_pressure_fraction`` shrinks the
  KV cache until retained segments compete for space; eviction keyed on
  the scheduler's invocation-distance prediction.
* ``kv-lru`` — the same starved cache with LRU eviction (what a
  scheduler-oblivious serving stack would do). The acceptance criterion
  is that ``kv-distance`` beats this cell somewhere: round-robin agent
  stepping is LRU's cyclic worst case (it evicts exactly the
  next-needed agent), while the trace lookahead keeps the agents whose
  next call is nearest.
* ``iteration`` — the ``kv-distance`` deployment at the reference
  fidelity (``fidelity="iteration"``). It keeps the fluid model honest
  (its ``tokens_per_s`` must stay within ``MAX_FIDELITY_GAP`` of the
  ``kv-distance`` sibling) and the reference replica cheap: every entry
  reports ``serving_events_per_call``, the kernel events scheduled
  below the driver per LLM call, and this cell gates it — events follow
  batch changes, not output tokens.

The headline metric, **end-to-end tokens per virtual second**
(`tokens_per_s`), is deterministic — virtual completion times do not
depend on the machine — so the CI gate compares it tightly against the
committed ``BENCH_serving.json`` at the repository root, read before
``--out`` rewrites it: the report is its own reference. Wall-clock replay
throughput is reported beside it, never gated; the report records the
machine's ``calibration_ops_per_sec`` before the matrix and
``calibration_after_ops_per_sec`` after it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from pathlib import Path

from ..config import SchedulerConfig, ServingConfig
from ..errors import ScenarioError
from ..scenarios import get_scenario, scenario_names
from .report import (Column, format_table, missing_cells, run_report,
                     timed_cell)
from .runner import PLATFORMS, serving_for
from .smoke import scenario_window_trace

SERVING_SEED = 0
#: The committed reference run, found from the source tree (not the cwd).
BASELINE_PATH = Path(__file__).resolve().parents[3] / "BENCH_serving.json"
#: The per-scenario matrix cells (see module docstring).
CELLS = ("fluid", "kv-distance", "kv-lru", "iteration")
#: Virtual tokens/s is deterministic; the ratio bar only absorbs float
#: noise across numpy/python versions, not machine speed.
MIN_TOKENS_RATIO = 0.95
#: Ceiling on an ``iteration`` cell's ``serving_events_per_call``: 25%
#: above the worst cell measured (social-graph, 4.41). Exact, so never
#: retried; one event per decode iteration reads 6.2-12.5 on the four.
MAX_SERVING_EVENTS_PER_CALL = 5.5
#: How far an ``iteration`` cell's tokens/s may sit from its fluid
#: ``kv-distance`` sibling's.
MAX_FIDELITY_GAP = 0.05


def _cell_config(profile, cell: str) -> ServingConfig:
    """The deployment for one matrix cell of a scenario's profile."""
    fluid = replace(serving_for(profile.platform, profile.gpus,
                                profile.fidelity), kv_policy="distance")
    starved = replace(fluid, kv_memory_fraction=profile.kv_pressure_fraction)
    configs = {"fluid": fluid, "kv-distance": starved,
               "kv-lru": replace(starved, kv_policy="lru"),
               "iteration": replace(starved, fidelity="iteration")}
    if cell not in configs:
        raise ScenarioError(f"unknown serving bench cell {cell!r}")
    return configs[cell]


def bench_cell(scenario: str, cell: str,
               policy: str = "metropolis") -> dict:
    """Replay one (scenario, cell); returns its report entry."""
    scn = get_scenario(scenario)
    profile = scn.serving_profile
    if profile.platform not in PLATFORMS:
        raise ScenarioError(
            f"{scn.name}: serving profile names unknown platform "
            f"{profile.platform!r}")
    # Full segment population: distance spread across a whole segment is
    # what differentiates the eviction policies.
    trace = scenario_window_trace(scn, n_agents=scn.agents_per_segment,
                                  seed=SERVING_SEED)
    serving = _cell_config(profile, cell)
    result, timed = timed_cell(
        trace, SchedulerConfig(policy=policy, scenario=scn.name), serving)
    wall = timed["wall_time_s"]
    metrics = result.engine_metrics
    total_tokens = (metrics.total_prompt_tokens
                    + metrics.total_output_tokens)
    extra = result.driver_stats.extra
    return {
        "scenario": scn.name,
        "cell": cell,
        "policy": policy,
        "platform": profile.platform,
        "gpus": profile.gpus,
        "kv_policy": serving.kv_policy,
        "kv_memory_fraction": serving.kv_memory_fraction,
        "n_agents": trace.meta.n_agents,
        "n_calls": trace.n_calls,
        "total_tokens": total_tokens,
        "completion_time_s": result.completion_time,
        #: The headline, deterministic end-to-end number.
        "tokens_per_s": metrics.throughput_tokens_per_s(),
        "achieved_parallelism": result.achieved_parallelism,
        "gpu_busy_fraction": result.gpu_busy_fraction,
        #: Kernel events below the driver (executor + replicas) per
        #: call: exact, and flat in the output length.
        "serving_events_per_call":
            (extra.get("kernel_events_total", 0)
             - extra.get("kernel_events", 0)) / max(trace.n_calls, 1),
        "wall_time_s": wall,
        "wall_tokens_per_s": total_tokens / wall if wall else float("inf"),
        "kv": result.kv_stats,
    }


def _entry_key(entry: dict) -> tuple:
    return (entry["scenario"], entry["cell"], entry["policy"])


def _annotate_vs_baseline(entries: list[dict], reference: dict) -> None:
    """Attach per-entry tokens/s ratios against the baseline report."""
    by_key = {_entry_key(e): e for e in reference["entries"]}
    for entry in entries:
        ref = by_key.get(_entry_key(entry))
        if ref is not None and ref["tokens_per_s"] > 0:
            entry["baseline_tokens_per_s"] = ref["tokens_per_s"]
            entry["tokens_ratio_vs_baseline"] = (
                entry["tokens_per_s"] / ref["tokens_per_s"])


def run_serving(scenarios: list[str] | None = None,
                cells: tuple[str, ...] = CELLS,
                policy: str = "metropolis",
                out: Path | str | None = None) -> dict:
    """Benchmark every (scenario, cell); write/return the report.

    Entries are annotated against :data:`BASELINE_PATH`; a missing file
    leaves them unannotated, which :func:`check_serving_report` fails
    loudly.
    """
    names = scenarios or scenario_names()

    def measure() -> dict:
        entries = [bench_cell(name, cell, policy=policy)
                   for name in names for cell in cells]
        if BASELINE_PATH.exists():
            _annotate_vs_baseline(entries,
                                  json.loads(BASELINE_PATH.read_text()))
        return {"entries": entries}

    return run_report("serving", out, measure, policy=policy,
                      cells=list(cells), scenarios=list(names))


def check_serving_report(report: dict,
                         min_tokens_ratio: float = MIN_TOKENS_RATIO,
                         required_cells: tuple[str, ...] | None = None
                         ) -> list[str]:
    """The CI gate: returns human-readable failures (empty = pass).

    Checks, per scenario: every matrix cell present; every entry has a
    baseline counterpart (a baseline missing a cell fails loudly, so
    new scenarios force a baseline regeneration); end-to-end tokens/s
    within ``min_tokens_ratio`` of baseline; KV-constrained distance cells
    actually hit their retained segments; ``iteration`` cells stay
    under ``MAX_SERVING_EVENTS_PER_CALL`` and within
    ``MAX_FIDELITY_GAP`` of their fluid ``kv-distance`` sibling; and
    invocation-distance eviction beats LRU on at least one
    KV-constrained cell overall. ``required_cells`` defaults to the
    cells the report says it ran.
    """
    entries = report["entries"]
    if required_cells is None:
        required_cells = tuple(report.get("cells", CELLS))
    failures = missing_cells(report, "cell", required_cells)
    by_cell = {(e["scenario"], e["cell"]): e for e in entries}
    for entry in entries:
        label = f"{entry['scenario']}/{entry['cell']}"
        ratio = entry.get("tokens_ratio_vs_baseline")
        if ratio is None:
            failures.append(
                f"{label}: no baseline entry — regenerate "
                f"{BASELINE_PATH}")
        elif ratio < min_tokens_ratio:
            failures.append(
                f"{label}: {entry['tokens_per_s']:.0f} tokens/s is "
                f"{ratio:.3f}x baseline, below the required "
                f"{min_tokens_ratio:.2f}x")
        if entry["cell"] == "kv-distance" and \
                entry.get("kv", {}).get("hits", 0) <= 0:
            failures.append(
                f"{label}: zero KV retention hits — the "
                f"invocation-distance policy is not engaging")
        if entry["cell"] == "iteration":
            events = entry["serving_events_per_call"]
            if events > MAX_SERVING_EVENTS_PER_CALL:
                failures.append(
                    f"{label}: {events:.2f} serving events per call, "
                    f"above the {MAX_SERVING_EVENTS_PER_CALL} ceiling — "
                    f"decode is paying per token again")
            fluid = by_cell.get((entry["scenario"], "kv-distance"))
            if fluid and abs(entry["tokens_per_s"] / fluid["tokens_per_s"]
                             - 1.0) > MAX_FIDELITY_GAP:
                failures.append(
                    f"{label}: {entry['tokens_per_s']:.0f} tokens/s is "
                    f"more than {MAX_FIDELITY_GAP:.0%} from the fluid "
                    f"kv-distance cell's {fluid['tokens_per_s']:.0f}")
    # The headline claim: distance-aware eviction must beat LRU on at
    # least one KV-constrained cell.
    wins = []
    for scenario in report.get("scenarios", []):
        dist = by_cell.get((scenario, "kv-distance"))
        lru = by_cell.get((scenario, "kv-lru"))
        if dist and lru and dist["tokens_per_s"] > lru["tokens_per_s"]:
            wins.append(scenario)
    if not wins and any(e["cell"] == "kv-distance" for e in entries):
        failures.append(
            "invocation-distance eviction beat LRU on no KV-constrained "
            "cell — the scheduler-aware policy lost its edge")
    return failures


#: The terminal tables: the serving matrix and the profile listing.
SERVING_COLUMNS = (
    Column("scenario", "<14"), Column("cell", "<13"),
    Column("tokens/s", ">10", "{:.0f}", "tokens_per_s"),
    Column("virt-time", ">11", "{:.0f}s", "completion_time_s"),
    Column("par", ">6", "{:.1f}", "achieved_parallelism"),
    Column("busy", ">6", "{:.2f}", "gpu_busy_fraction"),
    Column("hits", ">7", key=lambda e: e.get("kv", {}).get("hits", 0)),
    Column("evict", ">7",
           key=lambda e: e.get("kv", {}).get("evictions", 0)),
    Column("pins", ">6",
           key=lambda e: e.get("kv", {}).get("prefetch_pins", 0)),
    Column("ev/call", ">9", "{:.2f}", "serving_events_per_call"),
    Column("vs-base", ">9", "{:.2f}x", "tokens_ratio_vs_baseline"))
PROFILE_COLUMNS = (
    Column("scenario", "<14"), Column("platform", "<13"),
    Column("gpus", ">5"), Column("fidelity", ">10"),
    Column("prompt", ">8", "{:.0f}", "mean_prompt_tokens"),
    Column("output", ">8", "{:.0f}", "mean_output_tokens"),
    Column("kv-press", ">9", "{:.2f}", "kv_pressure_fraction"),
    Column("  description", cell="  {}", key="description"))


def format_serving_report(report: dict) -> str:
    """Fixed-width table for terminal output."""
    return format_table(None, SERVING_COLUMNS, report["entries"])


def format_profiles() -> str:
    """``repro-bench serving --list-profiles`` output."""
    return format_table(None, PROFILE_COLUMNS, [
        {"scenario": name, **asdict(get_scenario(name).serving_profile)}
        for name in scenario_names()])
