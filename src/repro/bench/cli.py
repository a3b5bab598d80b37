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
from .experiments import EXPERIMENTS, run_experiment
from .hotpath import (AGENT_COUNTS, BASELINE_PATH,
                      MAX_EVENTS_TOTAL_PER_CLUSTER,
                      MAX_FALLBACK_SCANS, MAX_KERNEL_EVENTS_PER_CLUSTER,
                      MAX_SCANS_PER_AGENT_STEP, MIN_PARALLEL_RATIO,
                      MIN_SCALE_RATIO, MIN_SPEC_RATIO,
                      MIN_SPEEDUP, MIN_THROUGHPUT, PARALLEL_WORKERS,
                      SCALE_AGENTS, SCALE_SCENARIOS, TRAJECTORY,
                      check_report, check_scale_report,
                      format_report, format_scale_report, load_baseline,
                      retry_perf_cells, run_hotpath, run_scale,
                      scale_ratio_lines)
from .serving import (BASELINE_PATH as SERVING_BASELINE_PATH, CELLS,
                      MIN_TOKENS_RATIO, MIN_WALL_RATIO,
                      check_serving_report, format_profiles,
                      format_serving_report, run_serving)
from .chaos import check_chaos_report, format_chaos_report, run_chaos
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
    hot.add_argument("--out", type=Path, default=Path("BENCH_hotpath.json"),
                     help="write the JSON report here")
    hot.add_argument("--baseline", type=Path, default=BASELINE_PATH,
                     help="committed baseline report to compare against")
    hot.add_argument("--history", type=Path, default=None,
                     help="extra older baseline for the "
                          "speedup_vs_preoverhaul trajectory column "
                          "(default: the committed pr2 + preoverhaul "
                          "records; missing files = skipped)")
    hot.add_argument("--check", action="store_true",
                     help="exit 1 if any entry misses the throughput "
                          "floor, regresses vs. the baseline, exceeds "
                          "the kernel-event, fallback-scan or scans-per-"
                          "agent-step (smallville) caps, or "
                          "a required matrix cell is absent")
    hot.add_argument("--min-throughput", type=float, default=MIN_THROUGHPUT,
                     help="absolute agent-steps/sec floor for --check")
    hot.add_argument("--min-speedup", type=float, default=MIN_SPEEDUP,
                     help="required throughput ratio vs. baseline "
                          "for --check")
    hot.add_argument("--max-kernel-events-per-cluster", type=float,
                     default=MAX_KERNEL_EVENTS_PER_CLUSTER,
                     help="cap on driver-scheduled kernel events per "
                          "dispatched cluster for --check")
    hot.add_argument("--max-fallback-scans", type=int,
                     default=MAX_FALLBACK_SCANS,
                     help="cap on linear fallback scans for --check "
                          "(0: the bucketed fast path must always run)")
    hot.add_argument("--require-agents", type=_agent_list, default=None,
                     metavar="N[,N...]",
                     help="matrix cells --check must find per scenario "
                          "(default: the benchmarked agent list)")
    hot.add_argument("--spec", action="store_true",
                     help="also replay every cell under metropolis-spec "
                          "and attach the speculative win/loss column "
                          "(spec_speedup + ledger counters); with "
                          "--check, speculative mode must stay within "
                          "--min-spec-ratio of plain OOO on every cell "
                          "and win on at least one")
    hot.add_argument("--min-spec-ratio", type=float,
                     default=MIN_SPEC_RATIO,
                     help="per-cell speculative/plain virtual-time "
                          "ratio floor for --spec --check")
    hot.add_argument("--scale", action="store_true",
                     help="run the scale matrix instead: a 2000-agent "
                          "reference cell plus serial and multiprocess "
                          "large tiled cells per scenario (default "
                          f"{list(SCALE_SCENARIOS)}) with the region-"
                          "sharded controller; --check gates each "
                          "cell's throughput ratio and the parallel/"
                          "serial ctrl-steps/s ratio")
    hot.add_argument("--scale-agents", type=int, default=SCALE_AGENTS,
                     help="population of the large scale cell "
                          f"(default {SCALE_AGENTS}; 1000000 adds the "
                          "nightly scale-large cell gated against the "
                          "100k parallel cell)")
    hot.add_argument("--min-scale-ratio", type=float,
                     default=MIN_SCALE_RATIO,
                     help="required scale-cell/reference-cell "
                          "throughput ratio for --scale --check")
    hot.add_argument("--parallel-workers", type=int,
                     default=PARALLEL_WORKERS,
                     help="worker processes for the multiprocess "
                          "scale cells (default "
                          f"{PARALLEL_WORKERS})")
    hot.add_argument("--min-parallel-ratio", type=float,
                     default=MIN_PARALLEL_RATIO,
                     help="required parallel/serial ctrl-steps/s "
                          "ratio for --scale --check")
    srv = sub.add_parser(
        "serving", help="end-to-end serving matrix: tokens/s + KV "
                        "counters per scenario on its declared "
                        "deployment profile")
    srv.add_argument("--scenario", action="append", default=None,
                     choices=scenario_names(), dest="scenarios",
                     help="limit to a scenario (repeatable)")
    srv.add_argument("--out", type=Path, default=Path("BENCH_serving.json"),
                     help="write the JSON report here")
    srv.add_argument("--baseline", type=Path, default=SERVING_BASELINE_PATH,
                     help="committed baseline report to compare against")
    srv.add_argument("--check", action="store_true",
                     help="exit 1 if any cell is missing, lacks a "
                          "baseline entry, regresses on end-to-end "
                          "tokens/s, falls through the wall-clock "
                          "floor, or invocation-distance eviction "
                          "beats LRU nowhere")
    srv.add_argument("--min-ratio", type=float, default=MIN_TOKENS_RATIO,
                     help="required tokens/s ratio vs. baseline "
                          "for --check")
    srv.add_argument("--min-wall-ratio", type=float,
                     default=MIN_WALL_RATIO,
                     help="calibration-normalized wall-clock floor "
                          "for --check")
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
        header = (f"{'name':<14}{'metric':<11}{'agents/seg':>10}  "
                  f"description")
        print(header)
        print("-" * len(header))
        for name in scenario_names():
            scn = get_scenario(name)
            print(f"{name:<14}{scn.metric:<11}"
                  f"{scn.agents_per_segment:>10}  {scn.description}")
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
        seeds = tuple(args.seeds) if args.seeds else (0,)
        report = run_chaos(out=args.out, scenarios=args.scenarios,
                           seeds=seeds)
        print(format_chaos_report(report))
        if args.out is not None:
            print(f"[report written to {args.out}]")
        if args.check:
            failures = check_chaos_report(report)
            if failures:
                for failure in failures:
                    print(f"FAIL: {failure}", file=sys.stderr)
                return 1
            print("chaos gate: ok")
        return 0

    if args.command == "hotpath" and args.scale:
        out = args.out if args.out != Path("BENCH_hotpath.json") \
            else Path("BENCH_scale.json")
        scenarios = tuple(args.scenarios) if args.scenarios \
            else SCALE_SCENARIOS
        report = run_scale(scenarios=scenarios,
                           scale_agents=args.scale_agents, out=out,
                           parallel_workers=args.parallel_workers)
        print(format_scale_report(report))
        if out is not None:
            print(f"[report written to {out}]")
        if args.check:
            for line in scale_ratio_lines(report):
                print(line)
            failures = check_scale_report(report, args.min_scale_ratio,
                                          min_parallel_ratio=(
                                              args.min_parallel_ratio))
            if failures:
                for failure in failures:
                    print(f"FAIL: {failure}", file=sys.stderr)
                return 1
            print("hotpath scale gate: ok")
        return 0

    if args.command == "hotpath":
        if args.check and load_baseline(args.baseline) is None:
            # A missing baseline must not silently degrade the gate to
            # floor-only: that is how a regression lands green.
            print(f"FAIL: baseline {args.baseline} not found "
                  f"(required for --check)", file=sys.stderr)
            return 1
        agent_counts = tuple(c for chunk in args.agents for c in chunk) \
            if args.agents else AGENT_COUNTS
        report = run_hotpath(
            scenarios=args.scenarios, agent_counts=agent_counts,
            baseline=args.baseline, history=args.history,
            trajectory=TRAJECTORY, out=args.out, spec=args.spec)
        print(format_report(report))
        if args.out is not None:
            print(f"[report written to {args.out}]")
        if args.check:
            required = tuple(args.require_agents) \
                if args.require_agents else agent_counts
            retried = retry_perf_cells(
                report, baseline=args.baseline, history=args.history,
                trajectory=TRAJECTORY,
                min_throughput=args.min_throughput,
                min_speedup=args.min_speedup, out=args.out)
            if retried:
                print(f"[re-measured {len(retried)} noisy cells: "
                      f"{', '.join(retried)}]")
                print(format_report(report))
            failures = check_report(
                report, args.min_throughput, args.min_speedup,
                required_counts=required,
                max_kernel_events_per_cluster=(
                    args.max_kernel_events_per_cluster),
                max_fallback_scans=args.max_fallback_scans,
                min_spec_ratio=args.min_spec_ratio if args.spec
                else None,
                max_scans_per_agent_step=MAX_SCANS_PER_AGENT_STEP,
                max_events_total_per_cluster=MAX_EVENTS_TOTAL_PER_CLUSTER)
            if failures:
                for failure in failures:
                    print(f"FAIL: {failure}", file=sys.stderr)
                return 1
            print("hotpath gate: ok")
        return 0

    if args.command == "serving":
        if args.list_profiles:
            print(format_profiles())
            return 0
        if args.check and load_baseline(args.baseline) is None:
            # Same rule as the hotpath gate: a missing baseline must
            # fail loudly, not silently skip the regression comparison.
            print(f"FAIL: baseline {args.baseline} not found "
                  f"(required for --check)", file=sys.stderr)
            return 1
        report = run_serving(scenarios=args.scenarios,
                             baseline=args.baseline, out=args.out)
        print(format_serving_report(report))
        if args.out is not None:
            print(f"[report written to {args.out}]")
        if args.check:
            failures = check_serving_report(
                report, args.min_ratio, args.min_wall_ratio,
                required_cells=CELLS)
            if failures:
                for failure in failures:
                    print(f"FAIL: {failure}", file=sys.stderr)
                return 1
            print("serving gate: ok")
        return 0

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
