"""Multiprocess controller: equivalence fuzz against the in-process
single graph and against the same worker tasks run in this process,
crashed-worker redispatch, the per-run pool's edges (clean exits, no
worker processes, failures), counter-aggregation parity, and the
worker-assignment balancer."""

import logging
import multiprocessing as mp
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FaultPolicy, SchedulerConfig, ServingConfig
from repro.core import run_replay
from repro.core.parallel import merge_extra_counters, try_parallel_replay
from repro.core.sharding import assign_shards
from repro.errors import SchedulingError
from repro.trace.generator import generate_scale_trace
from repro.trace.schema import concat_traces

from helpers import per_agent_sequences, random_trace
from test_golden_replay import InProcessPool, counters

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") and sys.platform != "darwin",
    reason="multiprocess mode needs a POSIX process model")


def _calls_trace(seed, n_segments=3, n_agents=8, n_steps=12, width=20):
    """Multi-region coordinate world *with* LLM calls: independent
    random-walk segments strided past the worst-case blocking margin
    (radius_p + (n_steps + 1) * max_vel), like the scale generator."""
    segs = [random_trace(seed * 31 + k, n_agents=n_agents,
                         n_steps=n_steps, width=width, height=16)
            for k in range(n_segments)]
    margin = 4 + (n_steps + 1)
    return concat_traces(segs, x_stride=width + 1 + 2 * (margin + 1))


def _modes(trace, base):
    """``(single, parallel)``: the in-process replay and the worker pool
    (``parallel_workers=2``) on ``trace``; the pool's result must equal
    the same tasks run in this process, counter for counter."""
    single = run_replay(trace, base, collect_timeline=True)
    workers = replace(base, parallel_workers=2)
    parallel = try_parallel_replay(trace, workers, ServingConfig(),
                                   collect_timeline=True)
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
    def test_coordinate_worlds_with_calls(self, seed):
        trace = _calls_trace(seed)
        base = SchedulerConfig(shards=4, validate_causality=True)
        _assert_modes_match(trace, *_modes(trace, base))

    @pytest.mark.parametrize("scenario", ["smallville", "metro-grid",
                                          "market-town", "social-graph"])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_scale_worlds(self, scenario, seed):
        trace = generate_scale_trace(total_agents=60, n_steps=10,
                                     scenario=scenario, base_seed=seed)
        base = SchedulerConfig(shards=4, validate_causality=True)
        single, parallel = _modes(trace, base)
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
        # Redispatch is idempotent (workers never write the position
        # store): the recovered run is state-identical to the clean one.
        n = trace.meta.n_agents
        assert crashed.n_tasks_completed == clean.n_tasks_completed
        assert per_agent_sequences(crashed.timeline, n) == \
            per_agent_sequences(clean.timeline, n)

    def test_crash_budget_exhaustion_raises(self):
        trace = _calls_trace(12)
        sched = SchedulerConfig(
            shards=4, parallel_workers=2,
            faults=FaultPolicy(max_redispatches=1))
        with pytest.raises(SchedulingError, match="crash budget"):
            try_parallel_replay(trace, sched, ServingConfig(),
                                _crash_plan={0: 5})
        assert not mp.active_children()


class TestPerRunPool:
    """Each run forks its workers and joins them before it returns."""

    def test_clean_exits_are_never_redispatched(self, monkeypatch):
        """A worker that exited 0 has flushed its ledger into the
        queue's pipe, whether or not the parent has read it yet: a
        liveness sweep that finds it gone must not fork it again. The
        parent's first read of each run is held until every worker has
        exited and then reports nothing yet, so the sweep always runs
        between the workers' last writes and the parent's reads (sweeps
        every 0.1 ms without the hold never landed there in 20 runs)."""
        import multiprocessing.queues
        import queue
        import time
        import weakref
        get = multiprocessing.queues.Queue.get
        held = weakref.WeakSet()

        def get_after_exits(outbox, *args, **kwargs):
            if outbox not in held:
                held.add(outbox)
                deadline = time.monotonic() + 60.0
                while mp.active_children() and time.monotonic() < deadline:
                    time.sleep(0.01)
                raise queue.Empty
            return get(outbox, *args, **kwargs)

        monkeypatch.setattr(multiprocessing.queues.Queue, "get",
                            get_after_exits)
        trace = generate_scale_trace(total_agents=60, n_steps=10,
                                     base_seed=16)
        sched = SchedulerConfig(shards=4, parallel_workers=2)
        for _ in range(3):
            result = try_parallel_replay(trace, sched, ServingConfig())
            assert not isinstance(result, str), result
            assert result.driver_stats.extra["worker_redispatches"] == 0
            assert not mp.active_children()

    def test_failed_run_leaves_no_stale_ledger(self, monkeypatch):
        """A run that raised on one worker's error stops its other
        workers before it raises, so no reply outlives it: the next run
        reads exactly its own ledgers (task ids restart at 0 every
        run), here with a crashed worker forked again."""
        from repro.core import parallel as par
        build = par._build_tasks

        def corrupt_worker_0(*args):
            tasks = build(*args)
            step, *rest = tasks[0]["calls"]
            assert len(step) > 0
            # Mismatched call columns: Trace(...) raises in worker 0.
            tasks[0]["calls"] = (step[:-1], *rest)
            return tasks

        monkeypatch.setattr(par, "_build_tasks", corrupt_worker_0)
        sched = SchedulerConfig(shards=4, parallel_workers=2)
        with pytest.raises(SchedulingError, match="worker 0 failed"):
            try_parallel_replay(_calls_trace(21), sched, ServingConfig())
        assert not mp.active_children()
        monkeypatch.undo()
        other = _calls_trace(22)
        after = try_parallel_replay(other, sched, ServingConfig(),
                                    _crash_plan={1: 1})
        fresh = try_parallel_replay(other, sched, ServingConfig(),
                                    _crash_plan={1: 1})
        assert not isinstance(after, str), after
        assert after.driver_stats.extra["worker_redispatches"] == 1
        assert after.completion_time == fresh.completion_time
        assert counters(after) == counters(fresh)

    def test_failed_fork_stops_the_started_workers_and_falls_back(
            self, monkeypatch):
        """A fork that raises ``OSError`` after another worker started
        (``EAGAIN`` at a process limit) falls back in-process, naming
        the error, with the started worker stopped and joined."""
        from repro.core import parallel as par
        real = par._mp_context()
        forked = []

        class SecondForkFails:
            Queue = staticmethod(real.Queue)

            @staticmethod
            def Process(*args, **kwargs):
                proc = real.Process(*args, **kwargs)
                start = proc.start

                def start_or_fail():
                    forked.append(proc)
                    if len(forked) == 2:
                        raise OSError(11, "Resource temporarily unavailable")
                    start()

                proc.start = start_or_fail
                return proc

        monkeypatch.setattr(par, "_mp_context", SecondForkFails)
        trace = generate_scale_trace(total_agents=60, n_steps=10,
                                     base_seed=17)
        result = try_parallel_replay(
            trace, SchedulerConfig(shards=4, parallel_workers=2),
            ServingConfig())
        assert isinstance(result, str), result
        assert "cannot start worker processes" in result
        assert "Resource temporarily unavailable" in result
        assert len(forked) == 2
        assert forked[0].exitcode is not None
        assert not mp.active_children()

    def test_no_multiprocessing_falls_back_and_names_why(self, monkeypatch):
        """Where ``_multiprocessing`` is missing the run's queue cannot be
        made; the replay falls back in-process and says so."""
        from repro.core import parallel as par

        def no_multiprocessing():
            raise ImportError("No module named '_multiprocessing'")

        monkeypatch.setattr(par, "_mp_context", no_multiprocessing)
        trace = generate_scale_trace(total_agents=60, n_steps=10,
                                     base_seed=18)
        result = run_replay(trace, SchedulerConfig(parallel_workers=2))
        extra = result.driver_stats.extra
        assert "parallel_workers" not in extra
        assert "cannot start worker processes" in extra["parallel_fallback"]
        assert "_multiprocessing" in extra["parallel_fallback"]
        assert result.n_tasks_completed == \
            trace.meta.n_agents * trace.meta.n_steps


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
        tasks = par._build_tasks(trace, sched, ServingConfig(), plan,
                                 groups, trace.share_positions(), False,
                                 None)
        ledgers = [par._run_worker_task(tasks[wid]) for wid in sorted(tasks)]
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
        tasks = par._build_tasks(trace, sched, ServingConfig(), plan,
                                 groups, trace.share_positions(), False,
                                 None)
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

    def test_every_task_references_the_one_store(self):
        """No task carries a copy of the positions: each references the
        trace's own store, and running a task leaves it unchanged (a
        crashed worker's retry from scratch rests on that)."""
        from repro.core import parallel as par
        from repro.core.rules import rules_for
        from repro.core.sharding import plan_regions

        trace = _calls_trace(10)
        sched = SchedulerConfig(shards=4, parallel_workers=2)
        plan = plan_regions(trace, rules_for(sched, trace.meta), 4)
        groups = assign_shards([len(m) for m in plan], 2)
        store = trace.share_positions()
        assert store is trace.positions_by_step
        before = store.copy()
        tasks = par._build_tasks(trace, sched, ServingConfig(), plan,
                                 groups, store, False, None)
        assert len(tasks) == 2
        for wid in sorted(tasks):
            assert tasks[wid]["positions"] is store
            ledger = par._run_worker_task(tasks[wid])
            assert ledger.n_tasks_completed == \
                len(tasks[wid]["members"]) * trace.meta.n_steps
        assert np.array_equal(store, before)


def _shm_entries() -> list[str]:
    """Named shared-memory segments and multiprocessing semaphores in
    ``/dev/shm``: ``psm_*`` (``SharedMemory``'s default names),
    ``repro-*`` and ``sem.mp-*``."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return []
    return sorted(p.name for p in shm_dir.iterdir()
                  if p.name.startswith(("psm_", "repro-", "sem.mp-")))


class TestSharedMemoryHygiene:
    """The pool hands the position store on by fork, not through a
    named segment: a run, drained or with a crashed worker, leaves
    nothing in ``/dev/shm`` and never imports
    ``multiprocessing.shared_memory``."""

    def test_no_segments_leak_after_drain(self):
        before = _shm_entries()
        trace = generate_scale_trace(total_agents=60, n_steps=10,
                                     base_seed=13)
        result = try_parallel_replay(
            trace, SchedulerConfig(shards=4, parallel_workers=2),
            ServingConfig())
        assert not isinstance(result, str), result
        assert _shm_entries() == before

    def test_no_segments_leak_after_crash(self):
        before = _shm_entries()
        trace = generate_scale_trace(total_agents=60, n_steps=10,
                                     base_seed=14)
        result = try_parallel_replay(
            trace, SchedulerConfig(shards=4, parallel_workers=2),
            ServingConfig(), _crash_plan={1: 1})
        assert not isinstance(result, str), result
        assert result.driver_stats.extra["worker_redispatches"] == 1
        assert _shm_entries() == before

    def test_replay_never_imports_shared_memory(self):
        out = _run_clean(
            "import sys\n"
            "from repro.config import SchedulerConfig, ServingConfig\n"
            "from repro.core.parallel import try_parallel_replay\n"
            "from repro.trace.generator import generate_scale_trace\n"
            "trace = generate_scale_trace(total_agents=60, n_steps=10,\n"
            "                             base_seed=15)\n"
            "result = try_parallel_replay(\n"
            "    trace, SchedulerConfig(parallel_workers=2),\n"
            "    ServingConfig(), _crash_plan={0: 1})\n"
            "assert not isinstance(result, str), result\n"
            "print(result.driver_stats.extra['worker_redispatches'],\n"
            "      'multiprocessing.shared_memory' in sys.modules)\n")
        assert out.split() == ["1", "False"]


def _run_clean(script: str, raises: str | None = None) -> str:
    """Run ``script`` in a fresh interpreter; require a clean exit (or,
    given ``raises``, one by that uncaught exception) with no
    resource-tracker complaint. Returns stdout."""
    import subprocess
    root = Path(__file__).resolve().parents[1]
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
    return done.stdout


class TestOddPlatforms:
    """Where fork or worker processes are missing: the spawn start
    method reaches the fork pool's counters, and a platform that cannot
    start a worker falls back in-process and names why. Each runs in a
    fresh interpreter, which must exit with no child process or
    resource-tracker warning left behind."""

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

    def test_no_worker_processes_falls_back_and_names_why(self):
        out = _run_clean(
            "import multiprocessing as mp\n"
            "from repro.config import SchedulerConfig\n"
            "from repro.core import parallel, run_replay\n"
            "from repro.trace.generator import generate_scale_trace\n"
            "def no_processes():\n"
            "    raise OSError(38, 'Function not implemented')\n"
            "parallel._mp_context = no_processes\n"
            "trace = generate_scale_trace(total_agents=60, n_steps=10,\n"
            "                             base_seed=15)\n"
            "result = run_replay(trace, SchedulerConfig(parallel_workers=2))\n"
            "assert result.n_tasks_completed == 600\n"
            "assert 'parallel_workers' not in result.driver_stats.extra\n"
            "assert not mp.active_children()\n"
            "print(result.driver_stats.extra['parallel_fallback'])\n")
        assert "cannot start worker processes" in out
        assert "Function not implemented" in out


class TestFailurePaths:
    """A failed replay tears down like a finished one. An exception in
    the parent after the workers ran, or SIGINT while they run, exits
    non-zero in a fresh interpreter that must leave no child process
    or resource-tracker warning behind."""

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
        # The last-forked worker interrupts the parent, then runs on.
        # It waits first: CPython prints and drops a KeyboardInterrupt
        # raised in an at-fork hook, i.e. while the parent still forks.
        out = _run_clean(
            self.PRELUDE
            + "import time\n"
              "run_task = parallel._run_worker_task\n"
              "def interrupting(task):\n"
              "    if task['task_id'] == 1:\n"
              "        time.sleep(0.2)\n"
              "        os.kill(os.getppid(), signal.SIGINT)\n"
              "    return run_task(task)\n"
              "parallel._run_worker_task = interrupting\n" + self.RUN,
            raises="KeyboardInterrupt")
        assert out.split() == ["children", "0"]

    def test_sigint_while_the_parent_forks(self):
        # The signal lands inside the parent's at-fork hooks, where
        # CPython would print and drop the KeyboardInterrupt; blocked
        # around the fork, it is raised once the worker is recorded.
        out = _run_clean(
            self.PRELUDE
            + "os.register_at_fork(after_in_parent=lambda: os.kill(\n"
              "    os.getpid(), signal.SIGINT))\n" + self.RUN,
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
