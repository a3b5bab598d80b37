"""Trace statistics (the paper's §4.1 trace characterization and Fig 4c).

The paper reports, per 25-agent simulated day: ~56.7k LLM calls, mean
input 642.6 tokens, mean output 21.9 tokens, an hourly call distribution
with a 1am-4am sleep trough, a ~5k-call busy hour (12-1pm) and a ~800-call
quiet hour (6-7am), and an average of 1.85 dependency agents (including
self). :func:`compute_stats` derives all of these from a trace so the
calibration can be asserted in tests and printed by the benches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import STEPS_PER_HOUR
from ..world.behavior import FUNCS
from .schema import Trace


@dataclass(frozen=True)
class TraceStats:
    n_agents: int
    n_steps: int
    total_calls: int
    mean_input_tokens: float
    mean_output_tokens: float
    #: Calls per simulated hour-of-day (length = ceil(steps/360)).
    calls_per_hour: np.ndarray
    #: Call counts per function name.
    calls_per_func: dict[str, int]
    #: Mean agents (including self) within the interaction threshold at
    #: each agent-step — the paper's "1.85 dependency agents" metric.
    mean_dependency_agents: float
    #: Mean calls per agent-step among steps that issue any call.
    mean_chain_length: float
    #: Fraction of agent-steps that issue no LLM call at all.
    idle_fraction: float


#: Every this many steps is sampled for ``mean_dependency_agents``.
SAMPLE_STRIDE = 7


def _mean_dependency_agents(trace: Trace) -> float:
    """Average cluster-mate count under the paper's oracle criterion.

    For every :data:`SAMPLE_STRIDE`-th step, counts for each agent how
    many agents (itself included) sit within ``radius_p + max_vel`` —
    i.e. how many actually constrain it across consecutive steps.
    """
    threshold = trace.meta.radius_p + trace.meta.max_vel
    if trace.meta.metric == "graph":
        # Hop-distance worlds: measure in the scenario's graph space
        # (pairwise loops; graph traces are small-world scale).
        from ..core.rules import rules_for  # lazy: avoid import cycle
        space = rules_for(None, trace.meta).space
        totals = 0.0
        count = 0
        n = trace.meta.n_agents
        for step in range(0, trace.meta.n_steps, SAMPLE_STRIDE):
            positions = [trace.pos(aid, step) for aid in range(n)]
            within = sum(
                1 for a in positions for b in positions
                if space.dist(a, b) <= threshold)
            totals += within / n
            count += 1
        return totals / max(count, 1)
    thr2 = threshold * threshold
    pos = trace.positions_by_step.astype(np.float64)
    totals = 0.0
    count = 0
    for step in range(0, trace.meta.n_steps, SAMPLE_STRIDE):
        p = pos[step]
        diff = p[:, None, :] - p[None, :, :]
        within = (diff ** 2).sum(axis=2) <= thr2
        totals += within.sum(axis=1).mean()
        count += 1
    return totals / max(count, 1)


def compute_stats(trace: Trace) -> TraceStats:
    """Derive the §4.1 characterization of a trace."""
    n_hours = (trace.meta.n_steps + STEPS_PER_HOUR - 1) // STEPS_PER_HOUR
    hour_of_call = trace.call_step // STEPS_PER_HOUR
    calls_per_hour = np.bincount(hour_of_call, minlength=n_hours)
    func_counts = np.bincount(trace.call_func, minlength=len(FUNCS))
    chain_lengths = trace.chain_lengths()
    nonzero = chain_lengths[chain_lengths > 0]
    return TraceStats(
        n_agents=trace.meta.n_agents,
        n_steps=trace.meta.n_steps,
        total_calls=trace.n_calls,
        mean_input_tokens=float(trace.call_in.mean()) if trace.n_calls else 0.0,
        mean_output_tokens=float(trace.call_out.mean()) if trace.n_calls else 0.0,
        calls_per_hour=calls_per_hour,
        calls_per_func={FUNCS[i]: int(func_counts[i])
                        for i in range(len(FUNCS)) if func_counts[i]},
        mean_dependency_agents=_mean_dependency_agents(trace),
        mean_chain_length=float(nonzero.mean()) if len(nonzero) else 0.0,
        idle_fraction=float((chain_lengths == 0).mean()),
    )
