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
  next-needed agent), while the wake-step signal protects near-wake
  agents.
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
committed ``benchmarks/baselines/serving_pr6.json``. Wall-clock replay
throughput is reported beside it, never gated; the report records the
machine's ``calibration_ops_per_sec`` before the matrix and
``calibration_after_ops_per_sec`` after it.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

from ..config import SchedulerConfig, ServingConfig
from ..core import run_replay
from ..errors import ScenarioError
from ..scenarios import get_scenario, scenario_names
from .hotpath import calibration_score, write_report
from .runner import PLATFORMS, serving_for
from .smoke import scenario_window_trace

SERVING_SEED = 0
#: The committed reference run, found from the source tree (not the cwd).
BASELINE_PATH = (Path(__file__).resolve().parents[3] / "benchmarks"
                 / "baselines" / "serving_pr6.json")
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
    base = serving_for(profile.platform, profile.gpus, profile.fidelity)
    if cell == "fluid":
        return ServingConfig(**{**base.__dict__, "kv_policy": "distance"})
    if cell == "kv-distance":
        return ServingConfig(**{**base.__dict__, "kv_policy": "distance",
                                "kv_memory_fraction":
                                profile.kv_pressure_fraction})
    if cell == "kv-lru":
        return ServingConfig(**{**base.__dict__, "kv_policy": "lru",
                                "kv_memory_fraction":
                                profile.kv_pressure_fraction})
    if cell == "iteration":
        return replace(_cell_config(profile, "kv-distance"),
                       fidelity="iteration")
    raise ScenarioError(f"unknown serving bench cell {cell!r}")


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
    wall0 = time.perf_counter()
    result = run_replay(
        trace, SchedulerConfig(policy=policy, scenario=scn.name), serving)
    wall = time.perf_counter() - wall0
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
    calibration = calibration_score()
    entries = [bench_cell(name, cell, policy=policy)
               for name in names for cell in cells]
    report = {
        "benchmark": "serving",
        "policy": policy,
        "cells": list(cells),
        "scenarios": list(names),
        "calibration_ops_per_sec": calibration,
        "calibration_after_ops_per_sec": calibration_score(),
        "entries": entries,
    }
    if BASELINE_PATH.exists():
        _annotate_vs_baseline(entries,
                              json.loads(BASELINE_PATH.read_text()))
    write_report(report, out)
    return report


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
    failures = []
    entries = report["entries"]
    if required_cells is None:
        required_cells = tuple(report.get("cells", CELLS))
    by_cell = {(e["scenario"], e["cell"]): e for e in entries}
    for scenario in report.get("scenarios", []):
        for cell in required_cells:
            if (scenario, cell) not in by_cell:
                failures.append(
                    f"{scenario}/{cell}: required matrix cell missing "
                    f"from the report")
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


def gate_serving(report: dict,
                 min_tokens_ratio: float = MIN_TOKENS_RATIO) -> None:
    """Raise :class:`ScenarioError` when the gate fails."""
    failures = check_serving_report(report, min_tokens_ratio)
    if failures:
        raise ScenarioError(
            "serving gate failed:\n  " + "\n  ".join(failures))


def format_serving_report(report: dict) -> str:
    """Fixed-width table for terminal output."""
    header = (f"{'scenario':<14}{'cell':<13}{'tokens/s':>10}"
              f"{'virt-time':>11}{'par':>6}{'busy':>6}"
              f"{'hits':>7}{'evict':>7}{'pins':>6}{'ev/call':>9}"
              f"{'vs-base':>9}")
    lines = [header, "-" * len(header)]
    for e in report["entries"]:
        kv = e.get("kv", {})
        ratio = e.get("tokens_ratio_vs_baseline")
        lines.append(
            f"{e['scenario']:<14}{e['cell']:<13}"
            f"{e['tokens_per_s']:>10.0f}"
            f"{e['completion_time_s']:>10.0f}s"
            f"{e['achieved_parallelism']:>6.1f}"
            f"{e['gpu_busy_fraction']:>6.2f}"
            f"{kv.get('hits', 0):>7}{kv.get('evictions', 0):>7}"
            f"{kv.get('prefetch_pins', 0):>6}"
            f"{e.get('serving_events_per_call', 0.0):>9.2f}"
            + (f"{ratio:>8.2f}x" if ratio is not None else f"{'-':>9}"))
    return "\n".join(lines)


def format_profiles() -> str:
    """``repro-bench serving --list-profiles`` output."""
    header = (f"{'scenario':<14}{'platform':<13}{'gpus':>5}"
              f"{'fidelity':>10}{'prompt':>8}{'output':>8}"
              f"{'kv-press':>9}  description")
    lines = [header, "-" * len(header)]
    for name in scenario_names():
        p = get_scenario(name).serving_profile
        lines.append(
            f"{name:<14}{p.platform:<13}{p.gpus:>5}{p.fidelity:>10}"
            f"{p.mean_prompt_tokens:>8.0f}{p.mean_output_tokens:>8.0f}"
            f"{p.kv_pressure_fraction:>9.2f}  {p.description}")
    return "\n".join(lines)
