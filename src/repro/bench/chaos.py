"""Chaos gate: fault-injected runs must end in the clean-run state.

The fault-tolerance claim behind ``repro.faults`` is *exactly-once
application under at-least-once execution*: whatever the chaos layer
injects — transient LLM errors, stragglers, hard call failures, forced
transaction conflicts, replica blackouts — the OOO engine must end in
the world state bit-identical to a clean lock-step run, because every
failed cluster is rolled back before any of its writes land and every
re-delivery is deduplicated by the program's per-``(step, agent)`` memo.

``repro-bench chaos --check`` proves it per registered scenario under
three seeded fault schedules (and checks each schedule actually
*exercised* its target recovery path, so a silently-disabled injector
cannot pass the gate):

* ``transient`` — retryable LLM errors + stragglers + a forced
  KV-transaction conflict storm: the seeded-backoff retry loops must
  absorb everything (``llm_retries``, ``tx_retries`` > 0);
* ``crash``     — hard LLM failures: clusters must be aborted
  (``abort_running``) and redispatched to success;
* ``breaker``   — a hard-failure burst: the circuit breaker must open
  and the run must complete on degraded fallback completions.

Two engine-level cells ride along: a replay-mode **replica blackout**
(retained KV lost, in-flight requests rerouted and re-prefilled, run
still completes with every call served) and a **watchdog** cell (a
synthetic lost-ack hang must surface as a diagnostic
:class:`SchedulingError` within the deadline, with no leaked worker
threads).
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from ..config import FaultPolicy, SchedulerConfig
from ..core import run_replay
from ..errors import SchedulingError
from ..faults import ChaosClient, FaultSchedule
from ..scenarios import get_scenario, scenario_names
from .report import Column, format_table, run_report
from .runner import serving_for
from .smoke import live_matches_lock_step, scenario_window_trace

#: The three per-scenario fault schedules the gate runs. Rates are per
#: LLM call; the smoke window issues hundreds, so every injector fires
#: many times under any seed.
SCHEDULES: tuple[str, ...] = ("transient", "crash", "breaker")

#: Forced KV-transaction conflicts injected per transient cell.
TX_STORM = 6

#: Virtual-time fraction of the clean run at which the blackout fires.
BLACKOUT_AT = 0.25

#: Watchdog deadline used by the synthetic-hang cell (seconds).
WATCHDOG_TIMEOUT = 0.4


def _policy(seed: int, **overrides) -> FaultPolicy:
    """Chaos-run fault policy: fast backoff so the gate stays quick."""
    defaults = dict(backoff_base=0.0005, backoff_max=0.008,
                    watchdog_timeout=30.0, worker_join_grace=2.0,
                    seed=seed)
    defaults.update(overrides)
    return FaultPolicy(**defaults)


def _schedule(kind: str, seed: int) -> FaultSchedule:
    if kind == "transient":
        return FaultSchedule(seed=seed, transient_rate=0.12,
                             straggler_rate=0.05, straggler_delay=0.001)
    if kind == "crash":
        return FaultSchedule(seed=seed, hard_rate=0.05,
                             straggler_rate=0.03, straggler_delay=0.001)
    if kind == "breaker":
        # A burst of consecutive hard failures trips the (lowered)
        # breaker threshold; the long cooldown keeps it open so the
        # rest of the run exercises the degraded-fallback path.
        return FaultSchedule(seed=seed, burst=6)
    raise ValueError(f"unknown chaos schedule {kind!r}")


#: Fault counters each schedule must have exercised (else the gate
#: fails even with identical state: the injector or the recovery path
#: silently did nothing).
REQUIRED_PATHS: dict[str, tuple[str, ...]] = {
    "transient": ("llm_retries", "tx_retries"),
    "crash": ("aborted_clusters", "redispatches"),
    "breaker": ("breaker_opens", "degraded_completions"),
}

#: The terminal table: one row per cell, then the watchdog's.
CHAOS_COLUMNS = (
    Column("scenario", "<14"), Column("schedule", "<11"),
    Column("state", "<7"), Column("exercised", "<28"),
    Column("ok", key=lambda c: "ok" if c["ok"] else "FAIL"))


def chaos_cell(scn, kind: str, seed: int) -> dict:
    """One (scenario, schedule) live run vs. the clean lock-step state."""
    from ..live import EchoLLMClient

    overrides = {}
    if kind == "breaker":
        overrides = dict(breaker_threshold=3, breaker_cooldown=60.0)
    # A transient cell also takes a forced WatchError burst: its next
    # TX_STORM state commits conflict and must be absorbed by the
    # optimistic-retry loop.
    identical, result = live_matches_lock_step(
        scn, min(10, scn.agents_per_segment),
        SchedulerConfig(scenario=scn.name,
                        faults=_policy(seed, **overrides)),
        ChaosClient(EchoLLMClient(), _schedule(kind, seed)),
        tx_storm=TX_STORM if kind == "transient" else 0)
    faults = result.faults.as_dict()
    missing = [key for key in REQUIRED_PATHS[kind] if not faults.get(key)]
    return {
        "scenario": scn.name,
        "schedule": kind,
        "seed": seed,
        "state_identical": identical,
        "required_paths": list(REQUIRED_PATHS[kind]),
        "unexercised_paths": missing,
        "faults": faults,
        "ok": identical and not missing and not faults.get("leaked_workers"),
    }


def blackout_cell(scn) -> dict:
    """Replay with a mid-run replica blackout on a DP-2 deployment."""
    trace = scenario_window_trace(scn)
    serving = serving_for("l4-8b", 2)
    scheduler = SchedulerConfig(policy="metropolis", scenario=scn.name)
    clean = run_replay(trace, scheduler, serving)

    blackout_time = clean.completion_time * BLACKOUT_AT

    def hook(kernel, engine) -> None:
        # The workload is bursty (calls cluster at dispatch instants),
        # so a blackout at a fixed virtual time can hit an idle
        # replica. Re-arm until the victim has in-flight work — that is
        # the case the gate must prove — with a bounded fuse so a
        # never-busy replica cannot keep the kernel alive forever.
        state = {"fuse": 2000}

        def fire() -> None:
            state["fuse"] -= 1
            if engine.replicas[1].outstanding == 0 and state["fuse"] > 0:
                kernel.call_in(clean.completion_time / 1000.0, fire)
                return
            engine.blackout_replica(1)

        kernel.call_at(blackout_time, fire)

    faulted = run_replay(trace, scheduler, serving, fault_hook=hook)
    extra = faulted.driver_stats.extra
    all_served = faulted.n_calls_completed == clean.n_calls_completed
    blackouts = int(extra.get("replica_blackouts", 0))
    rerouted = int(extra.get("rerouted_requests", 0))
    return {
        "scenario": scn.name,
        "schedule": "blackout",
        "blackout_time": blackout_time,
        "n_calls_clean": clean.n_calls_completed,
        "n_calls_faulted": faulted.n_calls_completed,
        "replica_blackouts": blackouts,
        "rerouted_requests": rerouted,
        "lost_retained_tokens": int(extra.get("lost_retained_tokens", 0)),
        "completion_time_clean": clean.completion_time,
        "completion_time_faulted": faulted.completion_time,
        "ok": all_served and blackouts >= 1 and rerouted >= 1,
    }


class _HangingClient:
    """First call blocks until released: a synthetic lost-ack hang."""

    def __init__(self) -> None:
        self.release = threading.Event()
        self._first = True
        self._lock = threading.Lock()

    def complete(self, prompt: str, max_tokens: int,
                 priority: float = 0.0) -> str:
        with self._lock:
            hang, self._first = self._first, False
        if hang:
            self.release.wait()
        return "ok"


class _TwoAgentProgram:
    """Two far-apart agents, one LLM call per step each."""

    n_agents = 2

    def position(self, aid: int):
        return (0.0, float(aid) * 1000.0)

    def execute(self, step: int, agent_ids, client) -> None:
        for aid in agent_ids:
            client.complete(f"agent {aid} step {step}", 8,
                            priority=float(step))


def watchdog_cell() -> dict:
    """A hung LLM call must become a diagnostic error, not a deadlock."""
    from ..live import LiveSimulation

    baseline_threads = threading.active_count()
    client = _HangingClient()
    policy = FaultPolicy(watchdog_timeout=WATCHDOG_TIMEOUT,
                         worker_join_grace=0.1,
                         call_timeout=3600.0)  # the watchdog must fire, not
    #                                            the per-call retry timeout
    sim = LiveSimulation(_TwoAgentProgram(), client,
                         scheduler=SchedulerConfig(faults=policy),
                         num_workers=2)
    started = time.monotonic()
    message = ""
    fired = False
    try:
        sim.run(target_step=3)
    except SchedulingError as exc:
        fired = True
        message = str(exc)
    elapsed = time.monotonic() - started
    client.release.set()  # unwedge the worker so its thread exits
    deadline = time.monotonic() + 5.0
    while (threading.active_count() > baseline_threads
           and time.monotonic() < deadline):
        time.sleep(0.01)
    leaked = threading.active_count() - baseline_threads
    diagnostic = "watchdog" in message and "progress:" in message
    within_deadline = elapsed < WATCHDOG_TIMEOUT * 10 + 2.0
    return {
        "schedule": "watchdog",
        "fired": fired,
        "diagnostic": diagnostic,
        "elapsed": elapsed,
        "leaked_threads": leaked,
        "message": message,
        "ok": fired and diagnostic and within_deadline and leaked == 0,
    }


def run_chaos(out: Path | None = None,
              scenarios: list[str] | None = None,
              seeds: tuple[int, ...] = (0,)) -> dict:
    """Run the full chaos matrix; write the JSON report if asked.

    Each scenario gets every schedule in :data:`SCHEDULES` per seed
    (the schedule kind is folded into the draw seed so cells are
    independent) plus one replay blackout cell; the watchdog cell is
    engine-global.
    """
    def measure() -> dict:
        cells = []
        for name in scenarios or scenario_names():
            scn = get_scenario(name)
            for base_seed in seeds:
                for offset, kind in enumerate(SCHEDULES):
                    cells.append(chaos_cell(scn, kind,
                                            seed=base_seed * 100 + offset))
            cells.append(blackout_cell(scn))
        watchdog = watchdog_cell()
        return {"cells": cells, "watchdog": watchdog,
                "ok": all(c["ok"] for c in cells) and watchdog["ok"]}

    return run_report("chaos", out, measure)


def _summary(cell: dict) -> tuple[str, str, str]:
    """A cell's ``state`` and ``exercised`` columns, and why it failed
    (meaningful only when it did)."""
    if cell["schedule"] == "blackout":
        exercised = (f"blackouts={cell['replica_blackouts']} "
                     f"rerouted={cell['rerouted_requests']}")
        return ("n/a" if cell["ok"] else "FAIL", exercised,
                f"{exercised} calls {cell['n_calls_faulted']}/"
                f"{cell['n_calls_clean']}")
    faults = cell["faults"]
    reasons = []
    if not cell["state_identical"]:
        reasons.append("final state diverged from lock-step")
    if cell["unexercised_paths"]:
        reasons.append(
            f"unexercised fault paths: {cell['unexercised_paths']}")
    if faults.get("leaked_workers"):
        reasons.append(f"leaked workers: {faults['leaked_workers']}")
    return ("same" if cell["state_identical"] else "DIFF",
            " ".join(f"{key}={faults.get(key, 0)}"
                     for key in cell["required_paths"]),
            "; ".join(reasons) or "failed")


def format_chaos_report(report: dict) -> str:
    rows = []
    for cell in report["cells"]:
        state, exercised, _ = _summary(cell)
        rows.append({**cell, "state": state, "exercised": exercised})
    wd = report["watchdog"]
    rows.append({**wd, "scenario": "-", "state": "-", "exercised":
                 f"fired={wd['fired']} diag={wd['diagnostic']} "
                 f"leaked={wd['leaked_threads']:<3}"})
    return format_table(None, CHAOS_COLUMNS, rows)


def check_chaos_report(report: dict) -> list[str]:
    """Gate: every cell ok. Returns human-readable failure strings."""
    failures = [f"{cell['scenario']}/{cell['schedule']}: {_summary(cell)[2]}"
                for cell in report["cells"] if not cell["ok"]]
    wd = report["watchdog"]
    if not wd["ok"]:
        failures.append(
            f"watchdog: fired={wd['fired']} diagnostic={wd['diagnostic']} "
            f"elapsed={wd['elapsed']:.2f}s leaked={wd['leaked_threads']}")
    return failures
