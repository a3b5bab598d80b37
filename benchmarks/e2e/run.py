"""The repo benchmark: five workloads, end-to-end and per-layer metrics.

Two ways in (see README.md):

* the report — ``python benchmarks/e2e/run.py [--seed N] [--workload
  NAME]... [--traced] [--out FILE] [--against FILE] [--smoke] [--aa]``
  runs the workloads in one subprocess each, takes their timed repeats
  in interleaved passes, and prints every metric by name with its unit;
* the driver's contract (``BENCHMARK.json``) — ``... --workload NAME
  --seed N --seconds S --trace 0|1`` runs one workload in this process
  and prints one JSON object as the last line.

Exits non-zero if any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT} holds no src/repro: the benchmark measures that "
             f"package and has nothing to run without it")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy  # noqa: E402

from metrics import (END_TO_END, PER_LAYER, WORKLOADS,  # noqa: E402
                     benchmark_json)
from session import Abort, Session, stop_children  # noqa: E402
from workloads import SIZES  # noqa: E402

#: Per size: timed repeats of the report, and cold set-ups of a run.
REPEATS = {"full": 7, "smoke": 2}
SETUPS = {"full": 3, "smoke": 1}
#: Fewest timed repeats of a driver run, however slow the machine.
MIN_REPEATS = 3


# ---------------------------------------------------------------------------
# the driver's contract: one workload, one JSON line
# ---------------------------------------------------------------------------


def run_contract(name: str, seed: int, seconds: float, trace: bool,
                 size: str) -> int:
    session = Session(SIZES[size][name], seed)
    session.setup(SETUPS[size])
    session.warmup()
    deadline = time.perf_counter() + seconds
    while len(session.samples) < MIN_REPEATS \
            or time.perf_counter() < deadline:
        session.repeat()
    report = session.finish(traced=trace)
    # One more operation: every process the run started has ended by
    # itself, before the result is printed.
    left = stop_children()
    if left:
        report["failures"].append(f"processes left running: {left}")
    attempted = report["ops_attempted"] + 1
    failed = report["ops_failed"] + bool(left)
    # The contract wants every per-layer metric from every workload; a
    # layer that does not run on this one did no work: 0.
    key = "per_layer" if trace else "end_to_end"
    spec, values = benchmark_json()[key], report[key]
    for failure in report["failures"]:
        print(failure, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in spec},
    }))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# the report: one subprocess per workload, repeats taken in passes
# ---------------------------------------------------------------------------


def serve(name: str, seed: int, size: str) -> int:
    """Worker side: one command per stdin line, one JSON reply each."""
    session = Session(SIZES[size][name], seed)
    for line in sys.stdin:
        command, *args = line.split()
        reply: dict = {"ok": True}
        if command == "setup":
            session.setup(int(args[0]))
        elif command == "warmup":
            session.warmup()
        elif command == "repeat":
            session.repeat()
        elif command == "finish":
            reply = session.finish(traced=True,
                                   spans_path=args[0] if args else None)
        print(json.dumps(reply), flush=True)
    return 0


class Worker:
    """Parent side of one workload's subprocess."""

    def __init__(self, name: str, seed: int, size: str) -> None:
        self.name = name
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--serve",
             "--workload", name, "--seed", str(seed), "--size", size],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONHASHSEED": "0"})

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise Abort(f"{self.name}: worker ended during {command!r} "
                        f"(exit code {self.proc.wait()})")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_all(names: list[str], seed: int, size: str,
            spans_stem: str | None = None) -> dict:
    """All workloads once; returns the report."""
    repeats, setups = REPEATS[size], SETUPS[size]
    workers = {name: Worker(name, seed, size) for name in names}
    reports: dict[str, dict] = {}
    try:
        # One worker is busy at a time: the others wait on their stdin.
        for worker in workers.values():
            worker.ask(f"setup {setups}")
            worker.ask("warmup")
        # One repeat per workload per pass, so a slow phase of the
        # shared machine falls on every workload and each median
        # samples the whole run.
        for _ in range(repeats):
            for worker in workers.values():
                worker.ask("repeat")
        for name, worker in workers.items():
            spans = f" {spans_stem}.spans.{name}.json" if spans_stem else ""
            reports[name] = worker.ask("finish" + spans)
    finally:
        for worker in workers.values():
            worker.close()
    return {"header": header(seed, size, repeats, setups),
            "workloads": reports}


def header(seed: int, size: str, repeats: int, setups: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {"git_sha": sha, "seed": seed, "size": size, "repeats": repeats,
            "setups": setups, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def print_report(report: dict, show_spans: bool) -> None:
    print("# e2e benchmark  " + "  ".join(
        f"{k}={v}" for k, v in report["header"].items()))
    for name, w in report["workloads"].items():
        size = "  ".join(f"{k}={v}" for k, v in w["size"].items()
                         if k != "name")
        print(f"\n## {name}  agent_steps={w['agent_steps']}  "
              f"samples={w['samples']}  setups={w['setups']}\n   {size}")
        print("end-to-end (host timings: median of the samples)")
        for m in END_TO_END:
            if m.name not in w["end_to_end"]:
                continue
            note = ""
            if m.name in w["quartiles"]:
                q1, q3 = w["quartiles"][m.name]
                note = f"   q1={_fmt(q1)} q3={_fmt(q3)}"
            if m.name == "ops_failed_share":
                note = f"   ops_attempted={w['ops_attempted']}"
            print(f"  {m.name:<40}{_fmt(w['end_to_end'][m.name]):>14} "
                  f"{m.unit}{note}")
        print("per-layer")
        for m in PER_LAYER:
            if m.name in w["per_layer"]:
                print(f"  {m.name:<40}{_fmt(w['per_layer'][m.name]):>14} "
                      f"{m.unit}")
        if show_spans and w["spans"]:
            print("spans of the traced run (calls, self s, total s)")
            for span, row in sorted(w["spans"].items()):
                print(f"  {span:<40}{row['calls']:>10} "
                      f"{row['self_s']:>10.4f} {row['total_s']:>10.4f}")
        for failure in w["failures"]:
            print(f"  FAILED {failure}")


def failed_ops(report: dict) -> int:
    return sum(w["ops_failed"] for w in report["workloads"].values())


# ---------------------------------------------------------------------------
# comparing reports: A/A of one checkout, and a change against its parent
# ---------------------------------------------------------------------------


def _worse_by(m, first: float, second: float) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    worse = (second - first) / first
    return -worse if m.better == "higher" else worse


def _moved_exact(name: str, reports: list[dict]) -> list[str]:
    """Exact metrics of one workload that are not the same in every report."""
    exact = {m.name for m in (*END_TO_END, *PER_LAYER) if m.exact}
    values = [{**r["workloads"][name]["end_to_end"],
               **r["workloads"][name]["per_layer"]} for r in reports]
    return sorted(k for k in exact if any(k in v for v in values)
                  and any(v.get(k) != values[0].get(k) for v in values))


def run_aa(names: list[str], seed: int, size: str,
           runs_per_set: int = 3) -> int:
    """Two sets of runs of this checkout: set medians against the bounds.

    Both sets ran the same code, so a difference in either direction is
    noise and is held against the bound.
    """
    sets = [[run_all(names, seed, size) for _ in range(runs_per_set)]
            for _ in range(2)]
    every = [report for runs in sets for report in runs]
    bad = sum(failed_ops(report) for report in every)
    print(f"# A/A  two sets of {runs_per_set} runs  seed={seed} size={size}")
    for name in names:
        print(f"\n## {name}")
        for m in END_TO_END:
            a, b = ([run["workloads"][name]["end_to_end"].get(m.name)
                     for run in runs] for runs in sets)
            if a[0] is None or m.exact:
                continue
            first, second = statistics.median(a), statistics.median(b)
            apart = _worse_by(m, first, second)
            verdict = "ok" if abs(apart) <= m.bound else "BEYOND BOUND"
            bad += verdict != "ok"
            print(f"  {m.name:<28} A={_fmt(first):>10} B={_fmt(second):>10} "
                  f"{m.unit:<6} apart by {apart:+.3f}  bound {m.bound}  "
                  f"{verdict}")
        moved = _moved_exact(name, every)
        bad += len(moved)
        print(f"  exact metrics identical across all {len(every)} runs: "
              + ("yes" if not moved else f"NO, these moved: {moved}"))
    return 1 if bad else 0


def against(parent: dict, report: dict) -> int:
    """This checkout's report against one ``--out`` wrote on its parent.

    Every end-to-end metric is held to its regression bound (``sim_*``:
    1e-9, so any loss), and every exact per-layer counter that moved is
    listed: a host-only change must move none of them.
    """
    same = ("seed", "size", "repeats", "setups")
    if any(parent["header"][k] != report["header"][k] for k in same):
        print(f"cannot compare: {same} differ between the reports",
              file=sys.stderr)
        return 1
    bad = 0
    print(f"\n# against parent {parent['header']['git_sha']}")
    for name, w in report["workloads"].items():
        before = parent["workloads"].get(name)
        if before is None:
            continue
        print(f"\n## {name}")
        if before["size"] != w["size"]:
            print(f"  sizes differ: parent ran {before['size']}")
            bad += 1
            continue
        for m in END_TO_END:
            first = before["end_to_end"].get(m.name)
            second = w["end_to_end"].get(m.name)
            if first is None or second is None:
                continue
            if m.name == "ops_failed_share":
                worse = second - first
            else:
                worse = _worse_by(m, first, second)
            verdict = "ok" if worse <= m.bound else "REGRESSED"
            bad += verdict != "ok"
            print(f"  {m.name:<28} parent={_fmt(first):>10} "
                  f"now={_fmt(second):>10} {m.unit:<6} worse by "
                  f"{worse:+.3g}  bound {m.bound}  {verdict}")
        moved = _moved_exact(name, [parent, report])
        bad += len(moved)
        print("  exact metrics identical to the parent's: "
              + ("yes" if not moved else f"NO, these moved: {moved}"))
    return 1 if bad else 0


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--traced", action="store_true",
                        help="also print the traced run's span table and, "
                        "with --out, write its spans beside the report")
    parser.add_argument("--out", help="write the report as JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, 2 repeats: every check in ~10 s")
    parser.add_argument("--aa", action="store_true",
                        help="two sets of 3 runs against the bounds")
    parser.add_argument("--against", metavar="FILE",
                        help="a report --out wrote on the parent commit, "
                        "same seed: fail on a metric beyond its bound or "
                        "an exact metric that moved")
    parser.add_argument("--seconds", type=float,
                        help="driver contract: measure this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver contract: 1 = per-layer metrics")
    parser.add_argument("--serve", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    names = args.workload or list(WORKLOADS)
    try:
        if args.serve:
            return serve(names[0], args.seed, args.size)
        if args.seconds is not None:
            if len(names) != 1:
                parser.error("--seconds takes exactly one --workload")
            return run_contract(names[0], args.seed, args.seconds,
                                bool(args.trace), args.size)
        size = "smoke" if args.smoke else "full"
        if args.aa:
            return run_aa(names, args.seed, size)
        stem = str(Path(args.out).with_suffix("")) \
            if args.out and args.traced else None
        report = run_all(names, args.seed, size, stem)
    except Abort as abort:
        print(f"aborted: {abort}", file=sys.stderr)
        return 1
    print_report(report, show_spans=args.traced)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    regressed = against(json.loads(Path(args.against).read_text()), report) \
        if args.against else 0
    return 1 if failed_ops(report) or regressed else 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        # On every path out, an error included: nothing outlives us.
        stop_children()
    sys.exit(code)
