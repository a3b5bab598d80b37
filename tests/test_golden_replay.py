"""Golden replay values: completion time and call timeline, per cell.

Each cell replays one trace — two independently seeded smallville
segments, the last :data:`STEPS` steps of the active window, side by
side past the worst-case blocking margin so ``plan_regions`` can split
them — under one combination of

* policy: ``metropolis``, ``parallel-sync``, and the bounds the paper's
  speedups are measured against: ``oracle`` (critical path),
  ``no-dependency`` (hardware throughput; it submits every call at once
  and records no call timeline, so its fingerprint is the empty one)
  and ``single-thread``;
* serving: 8 GPUs, uncapped (``dp8``) or with ``num_workers=3``
  (``dp8-w3``); one GPU with distance KV retention under the scenario's
  pressure fraction (``kv``);
* ``shards``: 0 and 2. An in-process replay runs one graph and ignores
  the knob, so each ``(·, ·, 2, 0)`` cell equals its ``(·, ·, 0, 0)``
  one; with ``parallel_workers=2`` it is the planner's region count.

and pins two values: the virtual completion time (an exact float) and
:func:`timeline_fingerprint` of its calls. A change that claims
bit-identical replays keeps every cell. The ``parallel_workers=2``
cells are pinned too, and each must also equal its worker tasks run
in this process — same completion time, same counters.

:data:`BRANCH_GOLDEN` pins the serving branches the policy cells never
reach, each on ``metropolis`` with one knob turned: ``lru`` retention
(at a pressure where it and ``distance`` part ways), FCFS admission
(``priority=False``), a running cap of 3 on two replicas, and a mid-run
blackout of replica 1 on a two-replica deployment with distance
retention. Each differs from the run with its knob left alone.

Re-taking a value: run ``PYTHONPATH=src python
tests/test_golden_replay.py`` from the repo root on the commit whose behaviour is the reference; it prints
the ``GOLDEN`` table. Only a change that moves a cell on purpose
re-takes it, and names each re-taken cell in its commit message.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, replace

import pytest

from repro import SchedulerConfig, run_replay
from repro.bench.runner import serving_for
from repro.config import DependencyConfig
from repro.core import parallel
from repro.scenarios import get_scenario
from repro.trace import Trace, cached_day_trace
from repro.trace.schema import concat_traces

from helpers import per_iteration_oracle

SCENARIO = "smallville"
STEPS = 40
POLICIES = ("metropolis", "parallel-sync", "oracle", "no-dependency",
            "single-thread")
SERVINGS = ("dp8", "dp8-w3", "kv")

#: (policy, serving, shards, parallel_workers) -> (completion time,
#: timeline fingerprint).
GOLDEN: dict[tuple[str, str, int, int], tuple[float, str]] = {
    ("metropolis", "dp8", 0, 0):
        (38.18909326287163, "42b90be45333c29e"),
    ("metropolis", "dp8", 2, 0):
        (38.18909326287163, "42b90be45333c29e"),
    ("metropolis", "dp8", 2, 2):
        (37.15946082137742, "278a129e3fcabebb"),
    ("metropolis", "dp8-w3", 0, 0):
        (115.4389132166701, "f9ca79d983928f15"),
    ("metropolis", "dp8-w3", 2, 0):
        (115.4389132166701, "f9ca79d983928f15"),
    ("metropolis", "dp8-w3", 2, 2):
        (62.44526324424448, "77c53765bedb91e8"),
    ("metropolis", "kv", 0, 0):
        (61.03216750590409, "cb6518968b2a8c3e"),
    ("metropolis", "kv", 2, 0):
        (61.03216750590409, "cb6518968b2a8c3e"),
    ("metropolis", "kv", 2, 2):
        (39.02510264740499, "272b14032b3ed1f6"),
    ("parallel-sync", "dp8", 0, 0):
        (215.14692193705778, "2f23c9440743ea3e"),
    ("parallel-sync", "dp8", 2, 0):
        (215.14692193705778, "2f23c9440743ea3e"),
    ("parallel-sync", "dp8-w3", 0, 0):
        (215.14692193705778, "2f23c9440743ea3e"),
    ("parallel-sync", "dp8-w3", 2, 0):
        (215.14692193705778, "2f23c9440743ea3e"),
    ("parallel-sync", "kv", 0, 0):
        (212.27969450314905, "4ab439fdf3b7ffec"),
    ("parallel-sync", "kv", 2, 0):
        (212.27969450314905, "4ab439fdf3b7ffec"),
    ("oracle", "dp8", 0, 0):
        (29.11939618483304, "99db5552902c90ef"),
    ("oracle", "dp8", 2, 0):
        (29.11939618483304, "99db5552902c90ef"),
    ("oracle", "dp8-w3", 0, 0):
        (115.61436032380814, "0df738b25d88bf9c"),
    ("oracle", "dp8-w3", 2, 0):
        (115.61436032380814, "0df738b25d88bf9c"),
    ("oracle", "kv", 0, 0):
        (62.14131075659284, "5d8122bfe5c3c469"),
    ("oracle", "kv", 2, 0):
        (62.14131075659284, "5d8122bfe5c3c469"),
    ("no-dependency", "dp8", 0, 0):
        (24.55871970658733, "4f53cda18c2baa0c"),
    ("no-dependency", "dp8", 2, 0):
        (24.55871970658733, "4f53cda18c2baa0c"),
    ("no-dependency", "dp8-w3", 0, 0):
        (24.55871970658733, "4f53cda18c2baa0c"),
    ("no-dependency", "dp8-w3", 2, 0):
        (24.55871970658733, "4f53cda18c2baa0c"),
    ("no-dependency", "kv", 0, 0):
        (62.75478196871404, "4f53cda18c2baa0c"),
    ("no-dependency", "kv", 2, 0):
        (62.75478196871404, "4f53cda18c2baa0c"),
    ("single-thread", "dp8", 0, 0):
        (336.7243934012061, "4cb49febd96930c5"),
    ("single-thread", "dp8", 2, 0):
        (336.7243934012061, "4cb49febd96930c5"),
    ("single-thread", "dp8-w3", 0, 0):
        (336.7243934012061, "4cb49febd96930c5"),
    ("single-thread", "dp8-w3", 2, 0):
        (336.7243934012061, "4cb49febd96930c5"),
    ("single-thread", "kv", 0, 0):
        (321.86955703757, "ae2c01213ff151de"),
    ("single-thread", "kv", 2, 0):
        (321.86955703757, "ae2c01213ff151de"),
}


#: branch cell -> (completion time, timeline fingerprint).
BRANCH_GOLDEN: dict[str, tuple[float, str]] = {
    "lru":
        (46.270381417749874, "dbed63a5e97e7ecd"),
    "fcfs":
        (58.35720331857631, "4ef567f9416fea72"),
    "running-cap":
        (63.42754944742265, "a334b905869e204c"),
    "blackout":
        (39.08628801811572, "f9cc792dbcee1c77"),
}

#: Virtual time at which the ``blackout`` cell first tries to crash
#: replica 1; it re-arms every :data:`BLACKOUT_RETRY` seconds until the
#: replica has work in flight.
BLACKOUT_AT = 8.0
BLACKOUT_RETRY = 0.05


def golden_trace() -> Trace:
    scn = get_scenario(SCENARIO)
    _, end = scn.active_window
    days = [cached_day_trace(seed, scn.agents_per_segment, end, scn)
            for seed in range(2)]
    dep = scn.dependency_config or DependencyConfig()
    margin = dep.radius_p + (STEPS + 1) * dep.max_vel
    stride = scn.world()[0].width + 1 + 2 * int(margin + 1)
    return concat_traces([day.window(end - STEPS, end) for day in days],
                         x_stride=stride)


def cell_config(policy: str, serving: str, shards: int, workers: int):
    """``(SchedulerConfig, ServingConfig)`` of one cell."""
    scn = get_scenario(SCENARIO)
    if serving == "kv":
        serving_cfg = replace(
            serving_for("l4-8b", 1), kv_policy="distance",
            kv_memory_fraction=scn.serving_profile.kv_pressure_fraction)
    else:
        serving_cfg = serving_for("l4-8b", 8)
    scheduler = SchedulerConfig(
        policy=policy, scenario=scn.name, shards=shards,
        parallel_workers=workers,
        num_workers=3 if serving == "dp8-w3" else 0)
    return scheduler, serving_cfg


BRANCH_CELLS = ("lru", "fcfs", "running-cap", "blackout")


def branch_config(name: str):
    """``(SchedulerConfig, ServingConfig, fault_hook)`` of a branch cell."""
    scn = get_scenario(SCENARIO)
    kv = replace(serving_for("l4-8b", 1), kv_policy="distance",
                 kv_memory_fraction=scn.serving_profile.kv_pressure_fraction)
    scheduler = SchedulerConfig(policy="metropolis", scenario=scn.name)
    hook = None
    if name == "lru":
        # At the scenario's pressure fraction lru evicts other segments
        # than distance but hits the same ones; at 0.12 the runs differ.
        serving = replace(kv, kv_policy="lru", kv_memory_fraction=0.12)
    elif name == "fcfs":
        # The replay hands the scheduler's priority switch to the
        # engine's waiting queue (§3.5; table 1 flips both together).
        scheduler = replace(scheduler, priority=False)
        serving = kv
    elif name == "running-cap":
        serving = replace(serving_for("l4-8b", 2), max_running_requests=3)
    elif name == "blackout":
        serving = replace(kv, dp=2)
        hook = _blackout_hook
    else:
        raise KeyError(name)
    return scheduler, serving, hook


def _blackout_hook(kernel, engine) -> None:
    def fire() -> None:
        if engine.replicas[1].outstanding == 0:
            kernel.call_in(BLACKOUT_RETRY, fire)
            return
        engine.blackout_replica(1)

    kernel.call_at(BLACKOUT_AT, fire)


def branch_replay(trace: Trace, name: str):
    scheduler, serving, hook = branch_config(name)
    return run_replay(trace, scheduler, serving, collect_timeline=True,
                      fault_hook=hook)


def cells() -> list[tuple[str, str, int, int]]:
    out = []
    for policy in POLICIES:
        for serving in SERVINGS:
            for shards in (0, 2):
                out.append((policy, serving, shards, 0))
            if policy == "metropolis":  # the one shard-worker controller
                out.append((policy, serving, 2, 2))
    return out


def timeline_fingerprint(result) -> str:
    """First 16 hex digits of SHA-256 over the sorted call rows.

    One row per completed call: ``(agent, step, func_id, finish_time)``,
    sorted, so the multiprocess merge (global ids, worker order) and the
    in-process run hash alike; ``repr`` keeps every float exact.
    """
    rows = sorted((e.agent, e.step, e.func_id, e.finish_time)
                  for e in result.timeline.events)
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def replay(trace: Trace, cell: tuple[str, str, int, int], pool=None):
    scheduler, serving = cell_config(*cell)
    if pool is not None:
        return parallel.try_parallel_replay(
            trace, scheduler, serving, collect_timeline=True, pool=pool)
    return run_replay(trace, scheduler, serving, collect_timeline=True)


class InProcessPool:
    """The shard-worker pool's contract, run in this process."""

    def run_tasks(self, tasks: dict[int, dict]) -> tuple[dict, int]:
        return {wid: parallel._run_worker_task(task)
                for wid, task in tasks.items()}, 0


def counters(result) -> dict:
    """Every counter of a merged result; host times and process-level
    bookkeeping (pool wall, per-worker CPU and peak RSS) left out."""
    stats = asdict(result.driver_stats)
    for host in ("time_clustering", "time_graph", "time_dispatch"):
        del stats[host]
    for key in ("parallel_wall_s", "worker_controller_times",
                "worker_peak_rss_mb"):
        stats["extra"].pop(key, None)
    return {"stats": stats, "kv": result.kv_stats,
            "calls": result.n_calls_completed,
            "tasks": result.n_tasks_completed}


def _cell_id(cell) -> str:
    return "-".join(map(str, cell))


@pytest.fixture(scope="module")
def trace() -> Trace:
    return golden_trace()


@pytest.mark.parametrize("cell", cells(), ids=_cell_id)
def test_golden_cell(trace, cell):
    result = replay(trace, cell)
    if cell[3]:
        assert result.driver_stats.extra.get("parallel_workers") == 2, \
            result.driver_stats.extra.get("parallel_fallback")
    assert result.n_calls_completed == trace.n_calls
    assert (result.completion_time, timeline_fingerprint(result)) \
        == GOLDEN[cell]


@pytest.mark.parametrize(
    "cell", [c for c in cells() if c[3]], ids=_cell_id)
def test_worker_processes_equal_in_process_tasks(trace, cell):
    here = replay(trace, cell, pool=InProcessPool())
    there = replay(trace, cell)
    assert there.completion_time == here.completion_time
    assert timeline_fingerprint(there) == timeline_fingerprint(here)
    assert counters(there) == counters(here)


@pytest.mark.parametrize("serving", SERVINGS)
@pytest.mark.parametrize("policy", POLICIES)
def test_cell_equals_its_per_iteration_oracle_replay(trace, policy,
                                                     serving):
    """The cells pin the iteration replica's values, and the
    one-event-per-iteration oracle it must equal gives them too."""
    cell = (policy, serving, 0, 0)
    with per_iteration_oracle():
        result = replay(trace, cell)
    assert (result.completion_time, timeline_fingerprint(result)) \
        == GOLDEN[cell]


@pytest.mark.parametrize("name", BRANCH_CELLS)
def test_branch_cell(trace, name):
    result = branch_replay(trace, name)
    assert result.n_calls_completed == trace.n_calls
    if name == "blackout":
        extra = result.driver_stats.extra
        assert extra["replica_blackouts"] == 1
        assert extra["rerouted_requests"] >= 1
    assert (result.completion_time, timeline_fingerprint(result)) \
        == BRANCH_GOLDEN[name]


@pytest.mark.parametrize("name", BRANCH_CELLS)
def test_branch_cell_equals_its_per_iteration_oracle_replay(trace, name):
    with per_iteration_oracle():
        result = branch_replay(trace, name)
    assert (result.completion_time, timeline_fingerprint(result)) \
        == BRANCH_GOLDEN[name]


def test_golden_table_covers_every_cell():
    assert sorted(GOLDEN) == sorted(cells())
    assert sorted(BRANCH_GOLDEN) == sorted(BRANCH_CELLS)


if __name__ == "__main__":
    tr = golden_trace()
    print("GOLDEN = {")
    for c in cells():
        r = replay(tr, c)
        key = '("%s", "%s", %d, %d)' % c
        print(f'    {key}:\n        ({r.completion_time!r}, '
              f'"{timeline_fingerprint(r)}"),')
    print("}")
    print("BRANCH_GOLDEN = {")
    for name in BRANCH_CELLS:
        r = branch_replay(tr, name)
        print(f'    "{name}":\n        ({r.completion_time!r}, '
              f'"{timeline_fingerprint(r)}"),')
    print("}")
