"""The whole benchmark at its smoke size, through every check."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_smoke_report(tmp_path):
    out = tmp_path / "report.json"
    done = run("--smoke", "--seed", "3", "--traced", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(out.read_text())
    assert set(report["header"]) >= {"git_sha", "seed", "nproc", "python",
                                     "numpy", "repeats"}
    assert list(report["workloads"]) == list(metrics.WORKLOADS)
    for name, w in report["workloads"].items():
        assert w["ops_failed"] == 0 and not w["failures"], w["failures"]
        assert w["ops_attempted"] >= 8 and w["samples"] == 2
        # Produced exactly where the table says, omitted elsewhere.
        for m in metrics.END_TO_END:
            assert (m.name in w["end_to_end"]) == (name in m.where), \
                (name, m.name)
        assert w["end_to_end"]["ops_failed_share"] == 0
        assert all(v > 0 for k, v in w["end_to_end"].items()
                   if k != "ops_failed_share")
        for m in metrics.PER_LAYER:
            if m.layer != "faults" and name == m.where[0]:
                assert m.name in w["per_layer"], (name, m.name)
        if name != "shard_mp":
            assert w["per_layer"]["bench.unattributed_share"] < 0.2
        spans = json.loads(
            (tmp_path / f"report.spans.{name}.json").read_text())
        assert spans[0][0] == "bench.run" and spans[0][3] == -1
        # Every metric is printed by name with its unit.
        for m in metrics.END_TO_END:
            if name in m.where:
                assert f"  {m.name} " in done.stdout
    assert not list(HERE.glob(".cache-*")), "a private trace cache is left"


def test_driver_contract_line():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = run("--workload", "busy_kv", "--seed", "4", "--seconds",
                   "0.2", "--trace", trace, "--size", "smoke")
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert isinstance(line["attempted"], int) and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in spec[key]]
        for m in spec[key]:
            got = line["metrics"][m["name"]]
            assert set(got) == {"value", "unit"}
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
            if key == "end_to_end":
                assert got["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, code != 0."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".cache-*"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "ville_active", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


#: Runs its arguments as a command, as the orphans' new parent (a child
#: subreaper), and prints the processes the command left behind.
_WATCH_ORPHANS = """
import ctypes, subprocess, sys
sys.path[:0] = sys.argv[1:3]
from session import child_pids
PR_SET_CHILD_SUBREAPER = 36
assert ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
done = subprocess.run(sys.argv[3:], capture_output=True, text=True)
print(done.returncode, child_pids())
"""


def test_driver_run_leaves_no_process():
    """``shard_mp`` starts workers and multiprocessing's resource tracker;
    all have ended, and are reaped, when the run's process exits."""
    done = subprocess.run(
        [sys.executable, "-c", _WATCH_ORPHANS, str(HERE), str(ROOT / "src"),
         *RUN,
         "--workload", "shard_mp", "--seed", "4", "--seconds", "0.2",
         "--trace", "0", "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.stdout.split(None, 1) == ["0", "[]\n"], \
        done.stdout + done.stderr


def test_stop_children_kills_and_reaps_stragglers():
    script = (
        "import subprocess, sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "from multiprocessing import resource_tracker\n"
        "from session import child_pids, stop_children\n"
        "resource_tracker.ensure_running()\n"
        "straggler = subprocess.Popen(['sleep', '60'])\n"
        "assert len(child_pids()) == 2\n"
        "assert stop_children() == [straggler.pid]\n"
        "assert child_pids() == []\n")
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
