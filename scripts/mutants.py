#!/usr/bin/env python3
"""Re-check that the tests would have caught it.

Each mutant is a patch to ``src/repro`` — one site, or several applied
together — that a named group of tests must turn red. The script copies
``src`` and ``tests`` to a temporary directory, applies one mutant at a
time, runs the tests and expects them to fail; a mutant that survives is
an error.

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
REPLICA = "src/repro/serving/replica.py"
METRICS = "src/repro/serving/metrics.py"
MEMORY = "src/repro/world/memory_stream.py"
BEHAVIOR = "src/repro/world/behavior.py"
AGENT = "src/repro/world/agent.py"
GRID = "src/repro/world/grid.py"
PATHFIND = "src/repro/world/pathfind.py"
MINED = "src/repro/core/oracle.py"
REPORT = "src/repro/bench/report.py"
SCHEMA = "src/repro/trace/schema.py"
STORE = "src/repro/kvstore/store.py"
UTIL = "src/repro/_util.py"
GOLDEN = "tests/test_golden_replay.py"
PARALLEL = "tests/test_parallel.py"
GRAPH_SPACE = "tests/test_graph_space.py"
ORACLE = "tests/test_replica_oracle.py"
RECORDS = "tests/test_serving.py::TestRequestRecords"
SCHEDULE = ("tests/test_core_drivers.py::TestOracleSchedule "
            "tests/test_equivalence.py::TestReplayMatchesLockStep"
            "::test_oracle_matches_lock_step")
WORLD = "tests/test_world.py"
PERCEPTION = "tests/test_perception.py"
RANKING = f"{WORLD}::TestMemoryRankingMemo::test_matches_reference"
RANKINGS = f"{WORLD}::TestMemoryRankingMemo"
DRAWS = ("tests/test_util.py::TestPcg64MatchesNumpy "
         "tests/test_trace.py::TestGoldenFingerprints")
WRITE = "node[aid] = self._node_index(new_p)"
COMPARE = "row[local[nb]] if comp[nb] == ca else inf"
SCAN_PASS = "            # Scalar pass over the window's slots"

#: name -> (file, old text, new text, which occurrence, tests), or
#: name -> ((site, ...), tests) with each site a (file, old text, new
#: text, which occurrence), patched in order. The
#: hop-row lane: the commit writes the node index wherever it writes
#: ``pos[aid]``, the three sites a cross-component pair can reach (the
#: band scan, ``dist`` and ``within``) compare components before reading
#: a row, ``within`` keeps its radius inclusive, a row widens with
#: its component, and a tiled space offsets each copy's components and
#: keys its hop rows by tile source (one row serves every copy). The
#: off-grid cell lane: a mover's cell and every initial cell come from
#: ``Space.bucket``, a mover drops its cached window keys, and a space
#: without cells is refused. The banded scan: ``_scan_rows`` walks only
#: the bands within a row's reach, which the scale cells' count gate
#: reads as slots per scan. The one-call round:
#: ``ControllerCore.step``'s singleton lane and sorted seeds, the fused
#: commit's peer count, the call-free cluster's due time and call test,
#: and pins for callers only. The worker path: a task's members sorted
#: (local ids monotone in global ids), its calls from every shard it
#: got, its own position columns gathered, global ids back on its
#: timeline, the plan's shard count in the
#: merge, and the planner's whole-trace margin. The decode window
#: against its per-iteration oracle: a boundary at the arrival's instant
#: has passed, each boundary is charged only once it runs (a cut or a
#: blackout must not leave unrun iterations charged, nor drop the one in
#: flight), any new admissible head cuts, and same-iteration finishes
#: leave in admission order. The finish bookkeeping: a record copies its
#: request's stamps, and one iteration's finishes are recorded in
#: admission order. The world model: the kept ranking against
#: its full-sort reference (an add is seen, ties in stream order, no
#: negative table index, the one-keyword literal and its one-keyword
#: test at both sites; the reuse's age range, class-pair guard,
#: insertion after equal keys and token sums dropped with a changed
#: order), every clause of the dwelling guard and a chatting agent's
#: turn ahead of it, the chat sweep's strict break and final sort, the
#: perception's inclusive radius without the agent itself, its reads of
#: the step-start state and its cell index following every move, the
#: first-declared venue table dropped by ``add_venue``, the wall-
#: respecting, four-way, read-only flood, and the roster: an ``awake``
#: write updates it, and the fall-asleep transition leaves it. The
#: oracle's mined-group
#: graph: a member waits on every group-mate behind it, on its own
#: step's group, and the last arrival releases the rest. The replay
#: driver: a blocker's commit releases every waiter out of range at the
#: exact threshold, the capped dispatch heap keys on priority before
#: arrival, the interactive cone reaches the whole horizon, and the
#: invocation distance counts from the agent's step. The harness: a
#: matrix cell no entry holds is reported, the pool forks again only
#: a worker that exited nonzero, and it leaves the oracle to the
#: in-process replay. The trace's call
#: index: a chain ends past the last call with its row key, and the
#: ``calling`` mask is scattered step-major. The live engine's store:
#: a write batch applies its counter increments. The seeded draws
#: against numpy's stream: a 64-bit output serves two 32-bit draws, and
#: the seed's pool is cross-mixed.
MUTANTS = {
    "commit-skips-node-index": (
        GRAPH, f"if node is not None:\n                    {WRITE}",
        "if False:\n                    pass", 0,
        f"{GRAPH_SPACE} tests/test_hotpath_scheduler.py"),
    "scan-drops-component-compare": (
        GRAPH, COMPARE, "row[local[nb]]", 0, GRAPH_SPACE),
    "space-drops-component-compare": (
        SPACE, "if la[2] != lb[2]:", "if False:", 0, GRAPH_SPACE),
    "within-drops-component-compare": (
        SPACE, "if (la[2] != lb[2] or abs(", "if (abs(", 0, GRAPH_SPACE),
    "within-strict-radius": (
        SPACE, "return row[lb[4]] <= radius", "return row[lb[4]] < radius",
        0, GRAPH_SPACE),
    "hop-row-one-byte": (
        SPACE, 'code = "B" if size <= 256 else "H" if size <= 1 << 16 else "I"',
        'code = "B"', 0, GRAPH_SPACE),
    "tile-drops-component-offset": (
        SPACE, "tile.comp[known].astype(np.intc) + offsets",
        "tile.comp[known].astype(np.intc)", 0, GRAPH_SPACE),
    "hop-row-keyed-by-global-id": (
        ((SPACE, "row = rows.get(src)", "row = rows.get(i)", 0),
         (SPACE, "rows[src] = row", "rows[i] = row", 0)), GRAPH_SPACE),
    "scan-walks-every-band": (
        GRAPH, SCAN_PASS,
        "            window = list(bands.values())\n" + SCAN_PASS, 0,
        "tests/test_hotpath_scheduler.py::TestHotpathBench"
        "::test_busy_scale_cell_passes_the_count_gate"),
    "off-grid-mover-keeps-old-cell": (
        GRAPH, "nc = bucket(new_p, cell)", "nc = oc", 0, GRAPH_SPACE),
    "mover-keeps-window-keys": (
        GRAPH, "wkeys[aid] = None", "pass", 0, GRAPH_SPACE),
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
    "worker-gathers-leading-columns": (
        POOL, 'positions = task["positions"][:, members, :].copy()',
        'positions = task["positions"][:, :len(members), :].copy()', 0,
        GOLDEN),
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
    "window-cut-bisect-left": (
        REPLICA, "k = bisect_right(ends, now)",
        "k = __import__('bisect').bisect_left(ends, now)", 0, ORACLE),
    "window-charged-at-plan-time": (
        REPLICA, "self._event = kernel.call_at(t, self._window_done)",
        "self._event = kernel.call_at(t, self._window_done)\n"
        "            self.busy_time = busy\n"
        "            self._busy[:] = [busy] * len(self._busy)",
        0, ORACLE),
    "cut-only-into-empty-queue": (
        REPLICA, "if ends and len(self._running)",
        "if ends and len(self._waiting) == 1 and len(self._running)", 0,
        ORACLE),
    "drain-charges-passed-iterations-only": (
        REPLICA, "self.busy_time = self._busy[min(k, len(self._busy) - 1)]",
        "self.busy_time = self._busy[k - 1] if k else self.busy_time", 0,
        ORACLE),
    "finishes-in-reverse-admission-order": (
        REPLICA, "self._run_seq, request))", "-self._run_seq, request))", 0,
        ORACLE),
    "record-stores-decode-as-prefill-start": (
        METRICS, "request.prefill_start, request.decode_start, now)))",
        "request.decode_start, request.decode_start, now)))", 0, RECORDS),
    "same-iteration-finishes-recorded-in-reverse": ((
        (REPLICA, "on_finish = self.on_request_finish",
         "on_finish = self.on_request_finish\n        recorded = []", 0),
        (REPLICA, "                on_finish(request)\n",
         "                recorded.append(request)\n", 0),
        (REPLICA, "request.on_complete, request)\n        self._schedule_next()",
         "request.on_complete, request)\n"
         "        for request in reversed(recorded):\n"
         "            on_finish(request)\n"
         "        self._schedule_next()", 0)),
        RECORDS),
    "ranking-memo-survives-add": (
        MEMORY, "self._added += 1", "pass", 0, RANKING),
    "ranking-ties-by-tokens": (
        MEMORY, "sorted(events, key=_sort_key(now_step, query_keywords))",
        "sorted(events, key=lambda e, k=_sort_key(now_step, query_keywords):"
        " (k(e), -e.tokens))", 0, RANKING),
    "decay-table-without-sign-guard": (
        MEMORY, "_DECAY[age] if 0 <= age < 4000 else",
        "_DECAY[age] if age < 4000 else", 0, RANKING),
    "one-keyword-hit-scored-one": (
        MEMORY, "(1.1 if only in event.keywords else 0.1)",
        "(1.0 if only in event.keywords else 0.1)", 0, WORLD),
    "one-keyword-shortcut-for-two-keywords": ((
        (MEMORY, "if n_query == 1 else None", "if n_query in (1, 2) else None",
         0),
        (MEMORY, "0.1)\n                     if n_query == 1 else",
         "0.1)\n                     if n_query in (1, 2) else", 0)),
        RANKINGS),
    "reuse-skips-age-range": (
        MEMORY, "if not (min(then, now_step) >= hi and", "if False and (", 0,
        RANKINGS),
    "every-class-pair-shift-safe": (
        MEMORY, "return all(_pair_shift_safe(",
        "return True or all(_pair_shift_safe(", 0,
        RANKINGS),
    "token-sums-survive-a-carry": (
        MEMORY, "self._span = (lo, hi)\n        self._sums = {}",
        "self._span = (lo, hi)", 0, RANKINGS),
    "appended-inserted-before-equal-keys": (
        MEMORY, "insort(ranked, event, key=key)",
        "__import__('bisect').insort_left(ranked, event, key=key)", 0,
        RANKINGS),
    "dweller-skips-reflection-check": (
        BEHAVIOR, "\n                and not self._reflection_due(agent, step)):",
        "):", 0, WORLD),
    "dweller-ignores-sleep-time": (
        BEHAVIOR, "and day_step < persona.sleep_step\n", "and True\n", 0,
        WORLD),
    "dweller-ignores-schedule-block": (
        BEHAVIOR, "and persona.block_at(day_step).activity\n"
        '                in (agent.activity, "sleeping")', "and True", 0,
        WORLD),
    "dweller-ignores-target": (
        BEHAVIOR, "if (agent.awake and agent.target_venue is None",
        "if (agent.awake", 0, WORLD),
    "dweller-ignores-awake": (
        BEHAVIOR, "if (agent.awake and agent.target_venue is None",
        "if (agent.target_venue is None", 0, WORLD),
    "dweller-drops-sleeping-block": (
        BEHAVIOR, 'in (agent.activity, "sleeping")', "in (agent.activity,)",
        0, WORLD),
    "dweller-guard-before-turn": ((
        (BEHAVIOR, "        if agent.busy_chatting:\n"
         "            self._conversation_turn(step, aid, out)\n"
         "            return\n", "", 0),
        (BEHAVIOR, "            return\n        rng = fast_rng_for(",
         "            return\n        if agent.busy_chatting:\n"
         "            self._conversation_turn(step, aid, out)\n"
         "            return\n        rng = fast_rng_for(", 0)),
        f"{WORLD}::TestBehaviorModel"
        "::test_conversation_pairs_symmetric_and_frozen"),
    "roster-misses-outside-write": (
        AGENT, "if roster is not None:", "if False:", 0, WORLD),
    "roster-keeps-sleeper": (
        BEHAVIOR, "agent.awake = False\n                self._set_activity",
        "agent._awake = False\n                self._set_activity", 0, WORLD),
    "chat-sweep-breaks-at-limit": (
        BEHAVIOR, "if bx > limit:", "if bx >= limit:", 0, WORLD),
    "chat-pairs-unsorted": (
        BEHAVIOR, "pairs.sort()", "pass", 0, WORLD),
    "neighbors-include-self": (
        BEHAVIOR, "for cid in sorted(self._in_reach(pos, near)) if cid != aid]",
        "for cid in sorted(self._in_reach(pos, near))]", 0, WORLD),
    "neighbors-strict-radius": (
        BEHAVIOR, "* dy <= reach]", "* dy < reach]", 0, WORLD),
    "perception-reads-live-state": (
        BEHAVIOR, "before, near = view",
        "before, near = {}, view[1] and [(cid, self.agents[cid].pos)"
        " for cid, _ in view[1]]", 0, PERCEPTION),
    "perception-index-misses-move": (
        BEHAVIOR, "        self._reindex()\n", "", 0, PERCEPTION),
    "venue-table-last-declared-wins": (
        GRID, "table.setdefault(tile, venue)", "table[tile] = venue", 0,
        WORLD),
    "venue-table-survives-add-venue": (
        GRID, "= venue\n        self._venue_of_tile = None", "= venue", 0,
        WORLD),
    "flood-misses-a-shift": (
        PATHFIND, "grown[:, :-1] |= frontier[:, 1:]", "pass", 0, WORLD),
    "flood-ignores-walls": (
        PATHFIND, "unseen = walkable & ~frontier",
        "unseen = np.ones_like(walkable) & ~frontier", 0, WORLD),
    "flood-field-writable": (
        PATHFIND, "field.setflags(write=False)", "pass", 0, WORLD),
    "mined-claims-group-a-step-behind": (
        MINED, "behind = {m for m in group if step[m] < s}",
        "behind = {m for m in group if step[m] < s - 1}", 0, SCHEDULE),
    "mined-blockers-from-next-step": (
        MINED, "group = self._group(s, aid)", "group = self._group(s + 1, aid)",
        0, SCHEDULE),
    "mined-release-skipped-for-last-arrival": (
        MINED, "if aid in waits:", "if aid in waits and len(waits) > 1:", 0,
        SCHEDULE),
    "release-keeps-out-of-range-waiter": (
        GRAPH, "if d <= thr:\n                        continue",
        "if d <= thr + mv:\n                        continue", 0,
        "tests/test_hotpath_scheduler.py"),
    "dispatch-heap-fifo-only": (
        DRIVER, "heappush(pending, (self._cluster_priority(s, cluster),",
        "heappush(pending, (self._pending_seq,", 0,
        "tests/test_core_drivers.py::TestWorkerCapQueue"),
    "interactive-cone-one-step-short": (
        DRIVER, "radius = self.rules.block_threshold(INTERACTIVE_HORIZON)",
        "radius = self.rules.block_threshold(INTERACTIVE_HORIZON - 1)", 0,
        "tests/test_core_drivers.py::TestWorkerCapQueue"),
    "distance-from-next-step": (
        DRIVER, "i = bisect_left(steps, s)", "i = bisect_left(steps, s + 1)",
        0, "tests/test_serving_kv.py::TestInvocationDistance"),
    "missing-cells-never-reported": (
        REPORT, "for value in required if (scenario, value) not in present]",
        "for value in required if False]", 0,
        "tests/test_hotpath_scheduler.py::TestHotpathBench"
        "::test_check_requires_matrix_cells "
        "tests/test_serving_kv.py::TestServingBench::test_missing_cell_fails"),
    "pool-redispatches-clean-exit": (
        POOL, "if wid not in results and proc.exitcode:",
        "if wid not in results and not proc.is_alive():", 0,
        f"{PARALLEL}::TestPerRunPool"),
    "pool-accepts-oracle": (
        POOL, 'if scheduler.policy != "metropolis":',
        'if scheduler.policy not in ("metropolis", "oracle"):', 0,
        f"{PARALLEL}::TestFallbacks"),
    "chain-ends-searched-at-starts": (
        SCHEMA, 'keys.searchsorted(rows, "right")', "keys.searchsorted(rows)",
        0, f"tests/test_trace.py::TestChainIndex {GOLDEN}"),
    "calling-scattered-agent-major": (
        SCHEMA, "mask[self.call_step.astype(np.int64) * n + self.call_agent]",
        "mask[self.call_agent.astype(np.int64) * self.meta.n_steps"
        " + self.call_step]", 0,
        f"tests/test_trace.py::TestChainIndex {GOLDEN}"),
    "store-drops-commit-count": (
        STORE, "for key, amount in txn.incrs:", "for key, amount in ():", 0,
        "tests/test_live.py::TestLiveSimulation"
        "::test_store_reflects_final_steps"),
    "pcg-upper-half-dropped": (
        UTIL, "self._half = word >> 32", "pass", 0, DRAWS),
    "seedseq-cross-mix-skipped": (
        UTIL, "for src in range(4):", "for src in range(0):", 0, DRAWS),
}


def sites(name: str) -> tuple[list[tuple[str, str, str, int]], str]:
    """A mutant's patch sites, in the order they apply, and its tests."""
    entry = MUTANTS[name]
    if len(entry) == 2:
        return list(entry[0]), entry[1]
    *site, tests = entry
    return [tuple(site)], tests


def patched(text: str, old: str, new: str, nth: int) -> str | None:
    """``text`` with occurrence ``nth`` of ``old`` replaced (None: absent)."""
    pieces = text.split(old)
    if len(pieces) <= nth + 1:
        return None
    return old.join(pieces[:nth + 1]) + new + old.join(pieces[nth + 1:])


def run(name: str, root: Path) -> bool:
    """True when the tests went red under the mutant."""
    patches, tests = sites(name)
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(root / part, Path(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "pyproject.toml", tmp)
        for file, old, new, nth in patches:
            target = Path(tmp, file)
            text = patched(target.read_text(), old, new, nth)
            if text is None:
                raise SystemExit(
                    f"{name}: patch site {nth} not found in {file}")
            target.write_text(text)
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
