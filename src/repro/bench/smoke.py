"""Per-scenario smoke replays: the CI gate behind ``repro-bench smoke``.

For every registered scenario this generates a tiny trace over the
scenario's active window, replays it under ``parallel-sync`` and
``metropolis`` on a simulated 1x L4 / Llama-3-8B deployment, and checks
the two properties a scenario must hold to ship:

* **speedup** — metropolis completes the window strictly faster than
  parallel-sync (the OOO scheduler has headroom to exploit);
* **equivalence** — the live threaded engine, run OOO over the same
  window, ends in the identical world state as lock-step execution.

The JSON report is uploaded as a CI artifact so regressions are easy to
bisect from the workflow page.
"""

from __future__ import annotations

from pathlib import Path

from ..config import SchedulerConfig
from ..core import run_replay
from ..errors import ScenarioError
from ..scenarios import get_scenario, scenario_names
from ..trace import generate_trace
from .report import run_report
from .runner import serving_for

#: Agents used for the smoke replay (capped per scenario segment size).
SMOKE_AGENTS = 10
SMOKE_SEED = 0


def scenario_window_trace(scenario, n_agents: int = SMOKE_AGENTS,
                          seed: int = SMOKE_SEED):
    """The canonical smoke workload: a small trace over the scenario's
    active window. The CI gate, the per-scenario microbenchmarks and the
    equivalence tests all replay exactly this, so their numbers compare.
    """
    scn = get_scenario(scenario)
    start, end = scn.active_window
    n_agents = min(n_agents, scn.agents_per_segment)
    return generate_trace(n_agents, end, seed=seed,
                          scenario=scn).window(start, end)


def smoke_one(name: str, check_live: bool = True) -> dict:
    """Run the smoke gate for one scenario; returns its report entry."""
    scn = get_scenario(name)
    scn.validate()
    start, end = scn.active_window
    trace = scenario_window_trace(scn)
    n_agents = trace.meta.n_agents
    serving = serving_for("l4-8b", 1)
    times = {}
    for policy in ("parallel-sync", "metropolis"):
        result = run_replay(
            trace, SchedulerConfig(policy=policy, scenario=scn.name),
            serving)
        times[policy] = result.completion_time
    entry = {
        "scenario": scn.name,
        "n_agents": n_agents,
        "window": [start, end],
        "n_calls": trace.n_calls,
        "parallel_sync_time": times["parallel-sync"],
        "metropolis_time": times["metropolis"],
        "speedup": times["parallel-sync"] / times["metropolis"],
        "metropolis_beats_sync": times["metropolis"] < times["parallel-sync"],
    }
    if check_live:
        # scenario= routes graph-metric worlds to their own space.
        entry["live_state_identical"] = live_matches_lock_step(
            scn, n_agents, SchedulerConfig(scenario=scn.name))[0]
    return entry


def live_matches_lock_step(scn, n_agents: int, scheduler,
                           client=None) -> tuple[bool, object]:
    """Live OOO vs lock-step over the scenario's active window.

    The reference model steps to the window's end in lock-step. The
    out-of-order one steps to its start; then :class:`LiveSimulation`
    runs it to the end on four worker threads under ``scheduler``, with
    ``client`` (an echo client by default). Returns whether both end in
    the same state, and the live run's result.
    """
    from ..live import EchoLLMClient, LiveSimulation
    from ..live.environment import BehaviorProgram

    start, end = scn.active_window
    ref = scn.model(n_agents, SMOKE_SEED)
    for step in range(end):
        ref.step_all(step)
    ooo = scn.model(n_agents, SMOKE_SEED)
    for step in range(start):
        ooo.step_all(step)
    sim = LiveSimulation(BehaviorProgram(ooo), client or EchoLLMClient(),
                         scheduler=scheduler, num_workers=4)
    result = sim.run(target_step=end, start_step=start)

    def state(model):
        return [(a.pos, a.awake, a.activity, len(a.memory))
                for a in model.agents]

    return state(ooo) == state(ref), result


def _passed(entry: dict) -> bool:
    return entry["metropolis_beats_sync"] and \
        entry.get("live_state_identical", True)


def run_smoke(out: Path | None = None, scenarios: list[str] | None = None,
              check_live: bool = True) -> dict:
    """Smoke-gate every registered scenario (or the given subset).

    Any scenario that fails either property raises
    :class:`ScenarioError` after the full report is written.
    """
    names = scenarios or scenario_names()

    def measure() -> dict:
        entries = [smoke_one(name, check_live=check_live) for name in names]
        return {"scenarios": entries, "ok": all(map(_passed, entries))}

    report = run_report("smoke", out, measure)
    failures = [e["scenario"] for e in report["scenarios"]
                if not _passed(e)]
    if failures:
        raise ScenarioError(
            f"smoke gate failed for: {failures} (see report)")
    return report
