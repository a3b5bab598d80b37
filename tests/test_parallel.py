"""Multiprocess controller: equivalence fuzz against the in-process
single graph and against the same worker tasks run in this process,
crashed-worker redispatch, counter-aggregation parity, shared-memory
hygiene, and the worker-assignment balancer."""

import logging
import os
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FaultPolicy, SchedulerConfig, ServingConfig
from repro.core import run_replay
from repro.core.parallel import (ShardWorkerPool, merge_extra_counters,
                                 try_parallel_replay)
from repro.core.sharding import assign_shards
from repro.errors import SchedulingError
from repro.trace.generator import generate_scale_trace
from repro.trace.schema import SharedPositionStore, concat_traces

from helpers import per_agent_sequences, random_trace
from test_golden_replay import InProcessPool, counters

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") and sys.platform != "darwin",
    reason="multiprocess mode needs POSIX shared memory")


@pytest.fixture(scope="module")
def pool():
    """One persistent two-worker pool shared across the fuzz worlds."""
    with ShardWorkerPool(2) as p:
        yield p


def _calls_trace(seed, n_segments=3, n_agents=8, n_steps=12, width=20):
    """Multi-region coordinate world *with* LLM calls: independent
    random-walk segments strided past the worst-case blocking margin
    (radius_p + (n_steps + 1) * max_vel), like the scale generator."""
    segs = [random_trace(seed * 31 + k, n_agents=n_agents,
                         n_steps=n_steps, width=width, height=16)
            for k in range(n_segments)]
    margin = 4 + (n_steps + 1)
    return concat_traces(segs, x_stride=width + 1 + 2 * (margin + 1))


def _stray_segments():
    """This process's position segments: their names carry the creating
    pid, so a replay running beside the tests cannot show up here."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return []
    return sorted(p.name for p in
                  shm_dir.glob(f"repro-pos-{os.getpid()}-*"))


def _modes(trace, base, pool):
    """``(single, parallel)``: the in-process replay and the worker pool
    (``parallel_workers=2``) on ``trace``; the pool's result must equal
    the same tasks run in this process, counter for counter."""
    single = run_replay(trace, base, collect_timeline=True)
    workers = replace(base, parallel_workers=2)
    parallel = try_parallel_replay(trace, workers, ServingConfig(),
                                   collect_timeline=True, pool=pool)
    here = try_parallel_replay(trace, workers, ServingConfig(),
                               collect_timeline=True, pool=InProcessPool())
    assert not isinstance(parallel, str), parallel
    assert not isinstance(here, str), here
    assert parallel.driver_stats.extra["parallel_workers"] == 2
    assert parallel.completion_time == here.completion_time
    assert counters(parallel) == counters(here)
    return single, parallel


def _assert_modes_match(trace, single, parallel):
    """Final state and per-agent call sequences — the order-independent
    facts — are identical in process and in the pool. Timing-entangled
    counters (kernel_events, mid-run scan totals) are *not* pinned on
    traces with calls: each worker owns a serving engine while the
    in-process run shares one, so intra-region commit interleavings
    legitimately differ (confluence covers state, not event counts)."""
    n, steps = trace.meta.n_agents, trace.meta.n_steps
    for r in (single, parallel):
        assert r.n_tasks_completed == n * steps
        assert r.n_calls_completed == trace.n_calls
    assert per_agent_sequences(parallel.timeline, n) == \
        per_agent_sequences(single.timeline, n)


class TestParallelEquivalenceFuzz:
    """Worker pool == in-process single graph, across coordinate worlds
    with calls and the scale worlds of every registered scenario (5 cells
    x 40 seeds = 200 worlds)."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_coordinate_worlds_with_calls(self, pool, seed):
        trace = _calls_trace(seed)
        base = SchedulerConfig(shards=4, validate_causality=True)
        _assert_modes_match(trace, *_modes(trace, base, pool))

    @pytest.mark.parametrize("scenario", ["smallville", "metro-grid",
                                          "market-town", "social-graph"])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_scale_worlds(self, pool, scenario, seed):
        trace = generate_scale_trace(total_agents=60, n_steps=10,
                                     scenario=scenario, base_seed=seed)
        base = SchedulerConfig(shards=4, validate_causality=True)
        single, parallel = _modes(trace, base, pool)
        _assert_modes_match(trace, single, parallel)
        # Scale windows are call-free, so every worker's virtual clock
        # runs the same overhead model the shared kernel would: the
        # merged completion (max over workers) is exact, and so are the
        # structural counters.
        assert parallel.completion_time == single.completion_time
        assert parallel.driver_stats.blocked_events == \
            single.driver_stats.blocked_events
        assert parallel.driver_stats.unblock_events == \
            single.driver_stats.unblock_events


class TestCrashRedispatch:
    def test_crashed_worker_is_redispatched(self):
        trace = _calls_trace(11)
        sched = SchedulerConfig(shards=4, parallel_workers=2)
        clean = try_parallel_replay(trace, sched, ServingConfig(),
                                    collect_timeline=True)
        crashed = try_parallel_replay(trace, sched, ServingConfig(),
                                      collect_timeline=True,
                                      _crash_plan={0: 1})
        assert not isinstance(clean, str), clean
        assert not isinstance(crashed, str), crashed
        assert clean.driver_stats.extra["worker_redispatches"] == 0
        assert crashed.driver_stats.extra["worker_redispatches"] == 1
        # Redispatch is idempotent (workers never write the shared
        # store): the recovered run is state-identical to the clean one.
        n = trace.meta.n_agents
        assert crashed.n_tasks_completed == clean.n_tasks_completed
        assert per_agent_sequences(crashed.timeline, n) == \
            per_agent_sequences(clean.timeline, n)

    def test_crash_budget_exhaustion_raises(self):
        trace = _calls_trace(12)
        sched = SchedulerConfig(
            shards=4, parallel_workers=2,
            faults=FaultPolicy(max_redispatches=1, worker_join_grace=1.0))
        with pytest.raises(SchedulingError, match="crash budget"):
            try_parallel_replay(trace, sched, ServingConfig(),
                                _crash_plan={0: 5})
        assert _stray_segments() == []


class TestPoolReuse:
    def test_failed_run_leaves_no_stale_ledger(self, monkeypatch):
        """A run that raised on one worker's error leaves the other
        worker's reply queued (its ledger, or its own error once the
        run's position segment is gone); the next run on the same pool
        must not take it for its own (task ids restart at 0 every run).

        Worker 1 is held (``SIGSTOP``) from the dispatch until the run
        has raised, so its reply is still owed then. Left running, it
        can beat a slow worker 0 on a busy machine: the run then takes
        its ledger before the error, raises with nothing left queued,
        and this test waits out its deadline on an empty outbox."""
        sched = SchedulerConfig(shards=4, parallel_workers=2)
        failing, other = _calls_trace(21), _calls_trace(22)
        with ShardWorkerPool(2) as pool:
            run_tasks = pool.run_tasks
            worker_1 = pool._procs[1].pid

            def corrupt_worker_0(tasks):
                step, *rest = tasks[0]["calls"]
                assert len(step) > 0
                # Mismatched call columns: Trace(...) raises in worker 0.
                tasks[0]["calls"] = (step[:-1], *rest)
                os.kill(worker_1, signal.SIGSTOP)
                return run_tasks(tasks)

            monkeypatch.setattr(pool, "run_tasks", corrupt_worker_0)
            try:
                with pytest.raises(SchedulingError, match="worker 0 failed"):
                    try_parallel_replay(failing, sched, ServingConfig(),
                                        pool=pool)
            finally:
                os.kill(worker_1, signal.SIGCONT)
            monkeypatch.undo()
            deadline = time.monotonic() + 60.0
            while pool._outbox.empty() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not pool._outbox.empty(), "worker 1 sent no reply"
            # Worker 1 crashes once on the new run, so worker 0's ledger
            # is queued behind the stale reply and ahead of worker 1's.
            reused = try_parallel_replay(other, sched, ServingConfig(),
                                         pool=pool, _crash_plan={1: 1})
        fresh = try_parallel_replay(other, sched, ServingConfig(),
                                    _crash_plan={1: 1})
        assert reused.completion_time == fresh.completion_time
        assert counters(reused) == counters(fresh)


class TestCounterAggregation:
    """Worker counters aggregate as plain sums — no double counting, no
    dropped worker — and the merge reports the plan's shard count."""

    def test_merged_extra_is_the_sum_of_worker_ledgers(self):
        """Run each worker's exact task in-process and check the
        multiprocess run's merged counters equal the plain sum of the
        ledgers, except ``shards``: each worker ran one graph, and the
        merge reports how many shards the plan split the agents into."""
        from repro.config import ServingConfig
        from repro.core import parallel as par
        from repro.core.rules import rules_for
        from repro.core.sharding import plan_regions

        trace = _calls_trace(9)
        sched = SchedulerConfig(shards=4, parallel_workers=2)
        plan = plan_regions(trace, rules_for(sched, trace.meta), 4)
        groups = assign_shards([len(m) for m in plan], 2)
        store = trace.share_positions()
        try:
            tasks = par._build_tasks(trace, sched, ServingConfig(), plan,
                                     groups, store, False, None)
            ledgers = [par._run_worker_task(tasks[wid])
                       for wid in sorted(tasks)]
        finally:
            store.unlink()
            store.close()
        result = try_parallel_replay(trace, sched, ServingConfig())
        assert not isinstance(result, str), result
        expected = merge_extra_counters(
            [led.driver_stats.extra for led in ledgers])
        assert [led.driver_stats.extra["shards"] for led in ledgers] \
            == [1, 1]
        expected["shards"] = len(plan)
        for key, value in expected.items():
            assert result.driver_stats.extra[key] == value, key
        for field in ("tasks_completed", "clusters_dispatched",
                      "cluster_size_sum", "blocked_events",
                      "unblock_events", "controller_rounds"):
            assert getattr(result.driver_stats, field) == \
                sum(getattr(led.driver_stats, field)
                    for led in ledgers), field
        assert result.completion_time == \
            max(led.completion_time for led in ledgers)
        # The graph counters are present, numeric and region-complete.
        assert result.driver_stats.extra["shards"] == len(plan) == 3
        for key in ("graph_scanned_slots", "graph_fallback_scans",
                    "graph_scans", "kernel_events"):
            assert key in result.driver_stats.extra, key

    def test_merge_extra_counters(self):
        merged = merge_extra_counters([
            {"scanned_slots": 3, "kernel_events": 2,
             "flag": True, "latencies": [1, 2]},
            {"scanned_slots": 4, "kernel_events": 5, "fallback_scans": 1},
        ])
        assert merged == {"scanned_slots": 7, "kernel_events": 7,
                          "fallback_scans": 1}


class TestWorkerTasks:
    def test_a_task_is_its_shards_members_sorted(self):
        """A worker's task is the sorted union of its shards' agents and
        exactly their calls, agent ids renumbered to that order."""
        from repro.config import ServingConfig
        from repro.core import parallel as par
        from repro.core.rules import rules_for
        from repro.core.sharding import plan_regions

        trace = _calls_trace(9)
        sched = SchedulerConfig(shards=4, parallel_workers=2)
        # Reversed, the shards' id ranges run backwards: a worker's
        # concatenated shards are out of order until its task sorts them.
        plan = plan_regions(trace, rules_for(sched, trace.meta), 4)[::-1]
        groups = assign_shards([len(m) for m in plan], 2)
        assert max(map(len, groups)) == 2
        store = trace.share_positions()
        try:
            tasks = par._build_tasks(trace, sched, ServingConfig(), plan,
                                     groups, store, False, None)
        finally:
            store.unlink()
            store.close()
        for wid, group in enumerate(groups):
            task = tasks[wid]
            members = sorted(a for si in group for a in plan[si])
            assert task["members"].tolist() == members
            mine = np.isin(trace.call_agent, members)
            step, local, *rest = task["calls"]
            for got, want in zip(
                    (step, task["members"][local], *rest),
                    (trace.call_step, trace.call_agent, trace.call_func,
                     trace.call_in, trace.call_out)):
                assert got.tolist() == want[mine].tolist()
            assert (task["scheduler"].shards,
                    task["scheduler"].parallel_workers) == (0, 0)


class TestSharedMemoryHygiene:
    """Satellite: no stray segments after a drain or a worker crash."""

    def test_store_round_trip(self):
        arr = np.arange(2 * 3 * 2, dtype=np.int32).reshape(2, 3, 2)
        store = SharedPositionStore.create(arr)
        attached = SharedPositionStore.open(store.name, store.shape,
                                            store.dtype)
        np.testing.assert_array_equal(attached.array, arr)
        # Writes land in the same pages both sides mapped.
        store.array[0, 0, 0] = 99
        assert attached.array[0, 0, 0] == 99
        name = store.name
        attached.close()
        store.unlink()
        store.close()
        from multiprocessing import shared_memory
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_no_segments_leak_after_drain(self):
        before = _stray_segments()
        trace = generate_scale_trace(total_agents=60, n_steps=10,
                                     base_seed=13)
        result = try_parallel_replay(
            trace, SchedulerConfig(shards=4, parallel_workers=2),
            ServingConfig())
        assert not isinstance(result, str), result
        assert _stray_segments() == before

    def test_no_segments_leak_after_crash(self):
        before = _stray_segments()
        trace = generate_scale_trace(total_agents=60, n_steps=10,
                                     base_seed=14)
        result = try_parallel_replay(
            trace, SchedulerConfig(shards=4, parallel_workers=2),
            ServingConfig(), _crash_plan={1: 1})
        assert not isinstance(result, str), result
        assert result.driver_stats.extra["worker_redispatches"] == 1
        assert _stray_segments() == before

    def test_pool_made_before_any_segment_warns_of_none(self):
        """Workers forked before the parent first shared a store still
        leave its cleanup to the parent's resource tracker."""
        import subprocess
        script = (
            "from repro.config import SchedulerConfig, ServingConfig\n"
            "from repro.core.parallel import ShardWorkerPool, "
            "try_parallel_replay\n"
            "from repro.trace.generator import generate_scale_trace\n"
            "with ShardWorkerPool(2) as pool:\n"
            "    result = try_parallel_replay(generate_scale_trace(\n"
            "        total_agents=60, n_steps=10, base_seed=15),\n"
            "        SchedulerConfig(parallel_workers=2), ServingConfig(),\n"
            "        pool=pool)\n"
            "    assert not isinstance(result, str), result\n")
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        assert "resource_tracker" not in done.stderr, done.stderr


def _run_clean(script: str, raises: str | None = None) -> str:
    """Run ``script`` in a fresh interpreter; require a clean exit (or,
    given ``raises``, one by that uncaught exception) that left no
    segment and no resource-tracker complaint. Returns stdout."""
    import subprocess
    root = Path(__file__).resolve().parents[1]
    before = _stray_segments()
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=300, env={**os.environ, "PYTHONPATH":
                          f"{root / 'src'}{os.pathsep}{root / 'tests'}"})
    if raises is None:
        assert done.returncode == 0, done.stderr
    else:
        assert done.returncode != 0, done.stdout
        assert done.stderr.strip().splitlines()[-1].startswith(raises), \
            done.stderr
    assert "resource_tracker" not in done.stderr, done.stderr
    assert "leaked" not in done.stderr, done.stderr
    assert _stray_segments() == before
    return done.stdout


class TestOddPlatforms:
    """Where fork or POSIX shared memory is missing: the spawn start
    method reaches the fork pool's counters, and a platform without
    shared memory falls back in-process and names why. Each runs in a
    fresh interpreter, which must exit with no child process, segment
    or resource-tracker warning left behind."""

    def test_spawn_pool_counters_equal_the_fork_pool(self):
        out = _run_clean(
            "import multiprocessing as mp\n"
            "from repro.config import SchedulerConfig, ServingConfig\n"
            "from repro.core import parallel\n"
            "from repro.trace.generator import generate_scale_trace\n"
            "from test_golden_replay import counters\n"
            "trace = generate_scale_trace(total_agents=60, n_steps=10,\n"
            "                             base_seed=15)\n"
            "sched = SchedulerConfig(parallel_workers=2)\n"
            "fork = parallel.try_parallel_replay(trace, sched, ServingConfig())\n"
            "parallel._mp_context = lambda: mp.get_context('spawn')\n"
            "spawn = parallel.try_parallel_replay(trace, sched, ServingConfig())\n"
            "assert spawn.driver_stats.extra['parallel_workers'] == 2\n"
            "assert counters(spawn) == counters(fork)\n"
            "assert spawn.completion_time == fork.completion_time\n"
            "assert not mp.active_children()\n"
            "print(spawn.n_tasks_completed)\n")
        assert out.split() == ["600"]

    def test_no_shared_memory_falls_back_and_names_why(self):
        out = _run_clean(
            "import multiprocessing as mp\n"
            "from repro.config import SchedulerConfig\n"
            "from repro.core import run_replay\n"
            "from repro.trace.generator import generate_scale_trace\n"
            "from repro.trace.schema import Trace\n"
            "def no_shm(self):\n"
            "    raise OSError(38, 'Function not implemented')\n"
            "Trace.share_positions = no_shm\n"
            "trace = generate_scale_trace(total_agents=60, n_steps=10,\n"
            "                             base_seed=15)\n"
            "result = run_replay(trace, SchedulerConfig(parallel_workers=2))\n"
            "assert result.n_tasks_completed == 600\n"
            "assert 'parallel_workers' not in result.driver_stats.extra\n"
            "assert not mp.active_children()\n"
            "print(result.driver_stats.extra['parallel_fallback'])\n")
        assert "no POSIX shared memory" in out
        assert "Function not implemented" in out


class TestFailurePaths:
    """A failed replay tears down like a finished one. An exception in
    the parent after the workers ran, or SIGINT while they run, exits
    non-zero in a fresh interpreter that must leave no child process,
    segment or resource-tracker warning behind."""

    PRELUDE = (
        "import multiprocessing as mp\n"
        "import os, signal\n"
        "from repro.config import SchedulerConfig\n"
        "from repro.core import parallel, run_replay\n"
        "from repro.trace.generator import generate_scale_trace\n"
        "trace = generate_scale_trace(total_agents=60, n_steps=10,\n"
        "                             base_seed=15)\n")
    RUN = (
        "try:\n"
        "    run_replay(trace, SchedulerConfig(parallel_workers=2))\n"
        "finally:\n"
        "    print('children', len(mp.active_children()))\n")

    def test_exception_in_the_parent(self):
        out = _run_clean(
            self.PRELUDE
            + "def merge(*args):\n"
              "    raise RuntimeError('merge failed')\n"
              "parallel._merge_results = merge\n" + self.RUN,
            raises="RuntimeError: merge failed")
        assert out.split() == ["children", "0"]

    def test_sigint_while_the_workers_run(self):
        # The first task's worker interrupts the parent, then runs on.
        out = _run_clean(
            self.PRELUDE
            + "run_task = parallel._run_worker_task\n"
              "def interrupting(task):\n"
              "    if task['task_id'] == 0:\n"
              "        os.kill(os.getppid(), signal.SIGINT)\n"
              "    return run_task(task)\n"
              "parallel._run_worker_task = interrupting\n" + self.RUN,
            raises="KeyboardInterrupt")
        assert out.split() == ["children", "0"]


class TestFallbacks:
    def test_single_region_says_why(self):
        # 24 agents fit one scenario segment -> one region -> fall back.
        trace = generate_scale_trace(total_agents=24, n_steps=10,
                                     base_seed=2)
        assert "fewer than two independent regions" in try_parallel_replay(
            trace, SchedulerConfig(shards=4, parallel_workers=2),
            ServingConfig())
        # The run_replay route falls through to the in-process driver.
        result = run_replay(
            trace, SchedulerConfig(shards=4, parallel_workers=2))
        assert result.n_tasks_completed == 24 * 10
        assert "parallel_workers" not in result.driver_stats.extra

    def test_impossible_multiprocess_run_says_why(self, caplog):
        """Asked for workers, ran in-process: the result carries the
        reason and the ``repro.core.parallel`` logger warned once."""
        one_region = generate_scale_trace(total_agents=24, n_steps=10,
                                          base_seed=2)
        sched = SchedulerConfig(shards=4, parallel_workers=2)
        with caplog.at_level(logging.WARNING, logger="repro.core.parallel"):
            result = run_replay(one_region, sched)
        reason = result.driver_stats.extra["parallel_fallback"]
        assert "fewer than two independent regions" in reason
        assert [r.name for r in caplog.records] == ["repro.core.parallel"]
        assert reason in caplog.records[0].getMessage()
        assert result.n_tasks_completed == 24 * 10
        # A fault_hook closure cannot reach a worker process.
        hooked = run_replay(_calls_trace(17), sched,
                            fault_hook=lambda kernel, engine: None)
        assert "fault_hook" in \
            hooked.driver_stats.extra["parallel_fallback"]
        assert "parallel_workers" not in hooked.driver_stats.extra
        # A run that did go multiprocess reports no fallback.
        engaged = run_replay(_calls_trace(17), sched)
        assert "parallel_fallback" not in engaged.driver_stats.extra

    def test_oracle_runs_in_process_and_says_why(self, caplog):
        """The pool runs only ``metropolis``: the oracle under
        ``parallel_workers=2`` replays in-process, names its policy in
        ``extra["parallel_fallback"]`` and warns once."""
        trace = _calls_trace(18)
        sched = SchedulerConfig(policy="oracle", shards=4,
                                parallel_workers=2)
        with caplog.at_level(logging.WARNING, logger="repro.core.parallel"):
            result = run_replay(trace, sched)
        reason = result.driver_stats.extra["parallel_fallback"]
        assert "'oracle'" in reason
        assert [r.name for r in caplog.records] == ["repro.core.parallel"]
        assert reason in caplog.records[0].getMessage()
        assert "parallel_workers" not in result.driver_stats.extra
        assert result.n_tasks_completed == \
            trace.meta.n_agents * trace.meta.n_steps

    def test_workers_below_two_says_why(self):
        trace = _calls_trace(15)
        assert "fewer than two parallel_workers" in try_parallel_replay(
            trace, SchedulerConfig(shards=4, parallel_workers=1),
            ServingConfig())

    def test_non_metropolis_policy_says_why(self):
        trace = _calls_trace(16)
        assert "'parallel-sync' has no shard-worker controller" in \
            try_parallel_replay(
                trace, SchedulerConfig(policy="parallel-sync",
                                       parallel_workers=2),
                ServingConfig())

    def test_run_replay_route_engages_parallel(self):
        trace = _calls_trace(17)
        result = run_replay(
            trace, SchedulerConfig(shards=4, parallel_workers=2))
        assert result.driver_stats.extra["parallel_workers"] == 2


class TestAssignShards:
    def test_lpt_balances_and_covers(self):
        groups = assign_shards([10, 1, 7, 3, 5, 2], 3)
        assert sorted(i for g in groups for i in g) == [0, 1, 2, 3, 4, 5]
        loads = [sum([10, 1, 7, 3, 5, 2][i] for i in g) for g in groups]
        assert max(loads) <= 11  # LPT: 10|7+2|5+3+1 or better
        # Deterministic: same input, same grouping.
        assert groups == assign_shards([10, 1, 7, 3, 5, 2], 3)

    def test_more_workers_than_shards(self):
        groups = assign_shards([4, 4], 8)
        assert len(groups) == 2
        assert sorted(i for g in groups for i in g) == [0, 1]
