"""``repro-bench`` command line: regenerate any paper figure/table.

Examples::

    repro-bench list
    repro-bench scenarios
    repro-bench run fig4a
    repro-bench run fig5 --full --scenario metro-grid
    repro-bench run all --out results/
    repro-bench smoke --out smoke-report.json
    repro-bench hotpath --out BENCH_hotpath.json --check
    repro-bench serving --list-profiles
    repro-bench serving --out BENCH_serving.json --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from ..errors import ScenarioError
from ..scenarios import get_scenario, scenario_names
from .chaos import check_chaos_report, format_chaos_report, run_chaos
from .experiments import EXPERIMENTS, run_experiment
from .hotpath import (AGENT_COUNTS, SCALE_AGENTS, SCALE_SCENARIOS,
                      check_report, check_scale_report, format_report,
                      format_scale_report, run_hotpath, run_scale,
                      scale_ratio_lines)
from .report import Column, format_table
from .serving import (CELLS, check_serving_report, format_profiles,
                      format_serving_report, run_serving)
from .smoke import run_smoke


def _agent_list(value: str) -> list[int]:
    """``--agents`` parser: comma-separated counts (also repeatable).

    ``repro-bench hotpath --agents 25,100,2000`` overrides the matrix
    without code edits; ad-hoc sweeps can mix styles
    (``--agents 500 --agents 1000,2000``).
    """
    try:
        counts = [int(tok) for tok in value.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid agent count list {value!r}") from None
    if not counts or any(c <= 0 for c in counts):
        raise argparse.ArgumentTypeError(
            f"agent counts must be positive integers, got {value!r}")
    return counts


#: ``repro-bench scenarios``: one row per registered scenario.
SCENARIO_COLUMNS = (
    Column("name", "<14", key=lambda s: s.name),
    Column("metric", "<11", key=lambda s: s.metric),
    Column("agents/seg", ">10", key=lambda s: s.agents_per_segment),
    Column("  description", cell="  {}", key=lambda s: s.description))


def _gate(name: str, table: str, out: Path | None,
          failures: list[str] | None, check_lines: list[str] = ()) -> int:
    """Print a gate family's table and report path. Under ``--check``
    (``failures`` not None) print ``check_lines``, send each failure to
    stderr and return 1 if there is any."""
    print(table)
    if out is not None:
        print(f"[report written to {out}]")
    if failures is None:
        return 0
    for line in check_lines:
        print(line)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"{name} gate: ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's evaluation figures/tables.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("scenarios", help="list registered workload scenarios")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=[*sorted(EXPERIMENTS), "all"])
    run.add_argument("--full", action="store_true",
                     help="paper-scale workloads (slow)")
    run.add_argument("--scenario", default=None, choices=scenario_names(),
                     help="workload scenario (default: smallville, or "
                          "REPRO_BENCH_SCENARIO)")
    run.add_argument("--out", type=Path, default=None,
                     help="also write tables to this directory")
    smoke = sub.add_parser(
        "smoke", help="tiny per-scenario replay gate (speedup + live "
                      "OOO-equivalence); CI runs this for every scenario")
    smoke.add_argument("--scenario", action="append", default=None,
                       choices=scenario_names(), dest="scenarios",
                       help="limit to a scenario (repeatable)")
    smoke.add_argument("--out", type=Path, default=None,
                       help="write the JSON report here")
    smoke.add_argument("--skip-live", action="store_true",
                       help="skip the live-engine equivalence check")
    chaos = sub.add_parser(
        "chaos", help="fault-injection gate: seeded chaos schedules per "
                      "scenario must end bit-identical to clean "
                      "lock-step, with every recovery path exercised")
    chaos.add_argument("--scenario", action="append", default=None,
                       choices=scenario_names(), dest="scenarios",
                       help="limit to a scenario (repeatable)")
    chaos.add_argument("--seed", action="append", type=int, default=None,
                       dest="seeds",
                       help="chaos draw seed (repeatable; default 0)")
    chaos.add_argument("--out", type=Path, default=Path("BENCH_chaos.json"),
                       help="write the JSON report here")
    chaos.add_argument("--check", action="store_true",
                       help="exit 1 if any cell diverges from the "
                            "lock-step state, leaves a required fault "
                            "path unexercised, leaks workers, or the "
                            "watchdog/blackout cells fail")
    hot = sub.add_parser(
        "hotpath", help="controller hot-path throughput (§3.6): agent-"
                        "steps/sec per scenario at several agent scales")
    hot.add_argument("--scenario", action="append", default=None,
                     choices=scenario_names(), dest="scenarios",
                     help="limit to a scenario (repeatable)")
    hot.add_argument("--agents", action="append", type=_agent_list,
                     default=None, metavar="N[,N...]",
                     help="agent scales, comma-separated and/or "
                          f"repeatable (default {list(AGENT_COUNTS)})")
    hot.add_argument("--out", type=Path, default=None,
                     help="write the JSON report here (default "
                          "BENCH_hotpath.json, or BENCH_scale.json "
                          "with --scale)")
    hot.add_argument("--check", action="store_true",
                     help="exit 1 if a matrix cell is absent or any "
                          "cell's exact counters exceed their "
                          "hotpath.COUNT_CEILINGS row (timings only "
                          "have to clear raw sanity floors)")
    hot.add_argument("--scale", action="store_true",
                     help="run the scale matrix instead: a 2000-agent "
                          "reference cell plus serial and multiprocess "
                          "large cells per scenario (default "
                          f"{list(SCALE_SCENARIOS)}), tiled from the "
                          "active window; --check holds every cell to "
                          "its COUNT_CEILINGS row, wants calls, moves "
                          "and scanned slots in each, and gates the "
                          "parallel/serial ctrl-steps/s ratio")
    hot.add_argument("--scale-agents", type=int, default=SCALE_AGENTS,
                     help="population of the large scale cell "
                          f"(default {SCALE_AGENTS}; 1000000 adds the "
                          "nightly scale-large parallel cell, held to "
                          "the same count gate)")
    srv = sub.add_parser(
        "serving", help="end-to-end serving matrix: tokens/s + KV "
                        "counters per scenario on its declared "
                        "deployment profile")
    srv.add_argument("--scenario", action="append", default=None,
                     choices=scenario_names(), dest="scenarios",
                     help="limit to a scenario (repeatable)")
    srv.add_argument("--out", type=Path, default=Path("BENCH_serving.json"),
                     help="write the JSON report here")
    srv.add_argument("--check", action="store_true",
                     help="exit 1 if any cell is missing, lacks a "
                          "baseline entry, regresses on end-to-end "
                          "tokens/s, or invocation-distance eviction "
                          "beats LRU nowhere")
    srv.add_argument("--list-profiles", action="store_true",
                     help="print each scenario's serving profile and "
                          "exit (no benchmarking)")
    args = parser.parse_args(argv)

    if args.command == "list":
        for name, fn in sorted(EXPERIMENTS.items()):
            doc_lines = (fn.__doc__ or "").strip().splitlines() or [""]
            print(f"{name:<20} {doc_lines[0]}")
        return 0

    if args.command == "scenarios":
        print(format_table(None, SCENARIO_COLUMNS, [
            get_scenario(name) for name in scenario_names()]))
        return 0

    if args.command == "smoke":
        try:
            report = run_smoke(out=args.out, scenarios=args.scenarios,
                               check_live=not args.skip_live)
        except ScenarioError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report, indent=2))
        return 0

    if args.command == "chaos":
        report = run_chaos(out=args.out, scenarios=args.scenarios,
                           seeds=tuple(args.seeds) if args.seeds else (0,))
        return _gate("chaos", format_chaos_report(report), args.out,
                     check_chaos_report(report) if args.check else None)

    if args.command == "hotpath" and args.scale:
        out = args.out or Path("BENCH_scale.json")
        scenarios = tuple(args.scenarios) if args.scenarios \
            else SCALE_SCENARIOS
        report = run_scale(scenarios=scenarios,
                           scale_agents=args.scale_agents, out=out)
        return _gate("hotpath scale", format_scale_report(report), out,
                     check_scale_report(report) if args.check else None,
                     scale_ratio_lines(report))

    if args.command == "hotpath":
        out = args.out or Path("BENCH_hotpath.json")
        agent_counts = tuple(c for chunk in args.agents for c in chunk) \
            if args.agents else AGENT_COUNTS
        report = run_hotpath(scenarios=args.scenarios,
                             agent_counts=agent_counts, out=out)
        return _gate("hotpath", format_report(report), out,
                     check_report(report) if args.check else None)

    if args.command == "serving":
        if args.list_profiles:
            print(format_profiles())
            return 0
        report = run_serving(scenarios=args.scenarios, out=args.out)
        return _gate("serving", format_serving_report(report), args.out,
                     check_serving_report(report, required_cells=CELLS)
                     if args.check else None)

    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    for name in names:
        started = time.monotonic()
        result = run_experiment(name, full=args.full,
                                scenario=args.scenario)
        elapsed = time.monotonic() - started
        print(result.table)
        print(f"[{name} completed in {elapsed:.1f}s]\n")
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{name}.txt").write_text(result.table + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
