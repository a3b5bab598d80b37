#!/usr/bin/env python3
"""Re-check that the tests would have caught it.

Each mutant is a one-line patch to ``src/repro`` that a named group of
tests must turn red. The script copies ``src`` and ``tests`` to a
temporary directory, applies one patch at a time, runs the tests and
expects them to fail; a mutant that survives is an error.

Usage: python scripts/mutants.py [name ...]   (no name = all)
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

GRAPH = "src/repro/core/dependency_graph.py"
SPACE = "src/repro/core/space.py"
INDEX = "src/repro/core/clustering.py"
CORE = "src/repro/core/controller.py"
DRIVER = "src/repro/core/metropolis.py"
TASKS = "src/repro/core/tasks.py"
POOL = "src/repro/core/parallel.py"
PLANNER = "src/repro/core/sharding.py"
GOLDEN = "tests/test_golden_replay.py"
PARALLEL = "tests/test_parallel.py"
GRAPH_SPACE = "tests/test_graph_space.py"
WRITE = "node[aid] = self._node_index(new_p)"
COMPARE = "row[local[nb]] if comp[nb] == ca else inf"

#: name -> (file, old text, new text, which occurrence, tests). The
#: hop-row lane: the commit writes the node index wherever it writes
#: ``pos[aid]``, and the two sites a cross-component pair can reach
#: (the band scan and ``dist_within``) compare components before
#: reading a row. The off-grid cell lane: a mover's cell and every
#: initial cell come from ``Space.bucket``, and a space without cells
#: is refused. The one-call round: ``ControllerCore.step``'s singleton
#: lane and sorted seeds, the fused commit's peer count, the call-free
#: cluster's due time and call test, and pins for callers only. The
#: worker path: a
#: task's members sorted (local ids monotone in global ids), its calls
#: from every shard it got, global ids back on its timeline, the plan's
#: shard count in the merge, and the planner's whole-trace margin.
MUTANTS = {
    "commit-skips-node-index": (
        GRAPH, f"if node is not None:\n                    {WRITE}",
        "if False:\n                    pass", 0,
        f"{GRAPH_SPACE} tests/test_hotpath_scheduler.py"),
    "scan-drops-component-compare": (
        GRAPH, COMPARE, "row[local[nb]]", 0, GRAPH_SPACE),
    "space-drops-component-compare": (
        SPACE, "if la[2] != lb[2]:", "if False:", 0, GRAPH_SPACE),
    "off-grid-mover-keeps-old-cell": (
        GRAPH, "nc = bucket(new_p, cell)", "nc = oc", 0, GRAPH_SPACE),
    "initial-cells-constant": (
        GRAPH, "return [bucket(p, cell) for p in self.pos]",
        "return [(0, 0) for p in self.pos]", 0, GRAPH_SPACE),
    "space-without-cells-accepted": (
        INDEX, "if not self._grid and self._window is None:", "if False:",
        0, GRAPH_SPACE),
    "singleton-lane-skips-blocked-check": (
        CORE, "if not blocked_by[aid]:", "if True:", 0, GOLDEN),
    "clusters-in-set-order": (
        CORE, "for aid in sorted(dirty):", "for aid in dirty:", 0, GOLDEN),
    "peer-count-keyed-by-old-step": (
        GRAPH, "peers[s] = peers.get(s, 0) + 1",
        "peers[old_step] = peers.get(old_step, 0) + 1", 0, GOLDEN),
    "call-free-due-regrouped": (
        DRIVER, "((self.kernel.now + overhead.controller_dispatch)\n"
        "                         + overhead.agent_step) + overhead.cluster_commit",
        "self.kernel.now + (overhead.controller_dispatch\n"
        "                         + overhead.agent_step + overhead.cluster_commit)",
        0, GOLDEN),
    "call-test-reads-next-step": (
        DRIVER, "base = s * n", "base = (s + 1) * n", 0, GOLDEN),
    "prefetch-pins-call-free-members": (
        TASKS, "if lo < hi])", "if lo <= hi])", 0,
        f"tests/test_core_tasks.py {GOLDEN}"),
    "task-members-unsorted": (
        POOL, "members = np.unique(np.concatenate(",
        "members = (np.concatenate(", 0, f"{GOLDEN} {PARALLEL}"),
    "task-calls-of-first-shard-only": (
        POOL, "mask = np.isin(call_agent, members)",
        "mask = np.isin(call_agent, shards[shard_idxs[0]])", 0,
        f"{GOLDEN} {PARALLEL}"),
    "worker-timeline-keeps-local-ids": (
        POOL, "TimelineEvent(gids[e.agent], e.step",
        "TimelineEvent(e.agent, e.step", 0, GOLDEN),
    "merge-sums-worker-shard-counts": (
        POOL, 'stats.extra["shards"] = n_shards', "pass", 0,
        f"{GOLDEN} {PARALLEL}"),
    "planner-margin-of-four-steps": (
        PLANNER, "margin = rules.radius_p + (n_steps + 1) * rules.max_vel",
        "margin = rules.radius_p + 4 * rules.max_vel", 0,
        "tests/test_sharding.py -k Boundary"),
}


def run(name: str, root: Path) -> bool:
    """True when the tests went red under the mutant."""
    file, old, new, nth, tests = MUTANTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(root / part, Path(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "pyproject.toml", tmp)
        target = Path(tmp, file)
        pieces = target.read_text().split(old)
        if len(pieces) <= nth + 1:
            raise SystemExit(f"{name}: patch site {nth} not found in {file}")
        target.write_text(old.join(pieces[:nth + 1]) + new
                          + old.join(pieces[nth + 1:]))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *tests.split()],
            cwd=tmp, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(tmp, "src")),
                 "PYTHONDONTWRITEBYTECODE": "1"})
    red = done.returncode == 1  # 1 = tests failed; 2+ = pytest broke
    lines = done.stdout.strip().splitlines() or [done.stderr[-200:]]
    failed = [line for line in lines if line.startswith("FAILED")]
    print(f"{'red ' if red else 'SURVIVED'}  {name}: "
          f"{(failed or lines)[-1][:150]}")
    return red


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    names = sys.argv[1:] or list(MUTANTS)
    survivors = [name for name in names if not run(name, root)]
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
