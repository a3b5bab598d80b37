"""§4.1 reference settings: ``oracle``, ``no-dependency`` and ``critical``.

* **oracle** mines the *actual* dependencies from the full trace: agents
  that appear in each other's observation space (within ``radius_p``) at
  a step synchronize before and after that step; otherwise only each
  agent's own step chain serializes. Unattainable online (it needs
  future knowledge), it upper-bounds any dependency manager, and it runs
  through ``metropolis``'s controller over a :class:`MinedGroupGraph`.
* **no-dependency** issues every LLM call at time zero — the pure
  hardware-throughput bound used for the §4.3 scaling studies.
* **critical** is the token-weighted longest path through the oracle
  dependency DAG, executed at batch size 1 with no queueing — the §4.2
  lower bound "regardless of available resources".
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from ..config import SchedulerConfig
from ..devent import Kernel
from ..errors import SchedulingError
from ..serving import PerfModel, ServingEngine
from ..trace import Trace
from .baselines import DriverStats
from .clustering import geo_clustering
from .dependency_graph import AgentSteps, CommitResult
from .rules import DependencyRules, rules_for
from .space import Position, Space
from .tasks import ChainExecutor


def mine_interaction_groups(trace: Trace, space: Space | None = None
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Per-step connected components of mutual observation, flat.

    Start-of-step positions within the trace's perception radius, in
    ``space`` (default: the trace scenario's). Returns ``(start,
    order)``, both ``(n_steps, n_agents)`` int32, 8 bytes per agent-step:
    ``order[s]`` lists the agents group by group, each group sorted, and
    ``start[s, a]`` is where agent ``a``'s group begins in that row.
    """
    if space is None:
        space = rules_for(None, trace.meta).space
    n, n_steps = trace.meta.n_agents, trace.meta.n_steps
    radius = trace.meta.radius_p
    start = np.empty((n_steps, n), dtype=np.int32)
    order = np.empty((n_steps, n), dtype=np.int32)
    for step, rows in enumerate(trace.positions_by_step[:n_steps]):
        # One contiguous step slice instead of n per-agent reads.
        positions = [(r[0], r[1]) for r in rows.tolist()]
        flat: list[int] = []
        starts = [0] * n
        for group in geo_clustering(range(n), positions, space, radius):
            for aid in group:
                starts[aid] = len(flat)
            flat += group
        order[step] = flat
        start[step] = starts
    return start, order


def mean_dependency_count(trace: Trace) -> float:
    """Average group size over agent-steps (the paper's 1.85 statistic):
    each member sees its whole group."""
    start, _ = mine_interaction_groups(trace)
    n_steps, n = start.shape
    keys = start + (np.arange(n_steps, dtype=np.int64) * n)[:, None]
    return float(np.bincount(keys.ravel())[keys].mean())


class MinedGroupGraph(AgentSteps):
    """The oracle's dependency graph: mined groups instead of geometry.

    Answers what :class:`~repro.core.controller.ControllerCore` and
    :class:`~repro.core.metropolis.MetropolisDriver` read from a
    :class:`~repro.core.dependency_graph.SpatioTemporalGraph`, under one
    rule: an agent at step ``s`` is blocked by every member of its mined
    group of ``s`` still at a lower step, and its component is that
    group's members at ``s``. A group is therefore claimed only when all
    of it sits at its step (the last arrival releases the others) and
    runs as one cluster; a lone agent never waits. No distance is ever
    measured, so positions are not kept: the groups settled them.
    """

    # The geometric graph's scan counters, which ``sync_stats`` folds.
    scans = scan_skips = near_checks = wake_skips = scanned_slots = 0

    def __init__(self, trace: Trace, rules: DependencyRules) -> None:
        super().__init__(trace.meta.n_agents)
        self.rules = rules
        self._start, self._order = mine_interaction_groups(trace,
                                                           rules.space)
        self._n_steps = trace.meta.n_steps

    def _group(self, s: int, aid: int) -> list[int]:
        """``aid``'s mined group of step ``s``, sorted."""
        if s >= self._n_steps:
            return [aid]
        start = self._start[s]
        order = self._order[s]
        j = end = int(start[aid])
        last = len(order) - 1
        while end < last and start[order[end + 1]] == j:
            end += 1
        return order[j:end + 1].tolist()

    def component_for(self, aid: int, visited: set[int],
                      strict: bool = True) -> list[int]:
        """The members of ``aid``'s mined group at its step (sorted),
        added to ``visited``. Always strict: a running one is an error."""
        step = self.step
        s = step[aid]
        members = [m for m in self._group(s, aid) if step[m] == s]
        if any(self.running[m] for m in members):
            raise SchedulingError(f"a member of agent {aid}'s mined group "
                                  f"of step {s} is running")
        visited.update(members)
        return members

    def invocation_distance(self, aid: int) -> float:
        """No wake-step bound: the trace lookahead alone decides."""
        return 0.0

    def commit(self, aids: Iterable[int],
               new_positions: Mapping[int, Position]) -> CommitResult:
        """Advance a batch of finished clusters one step each.

        A member releases each group-mate of its new step that waited
        on it, then waits on each one still behind it.
        ``member_neighbors`` holds ``()`` for a member whose new group
        is itself; the others' components come from the group.
        """
        members = list(aids)
        step = self.step
        running = self.running
        peers: dict[int, int] = {}
        for aid in members:
            if not running[aid]:
                raise SchedulingError(f"agent {aid} was not running")
            running[aid] = False
            s = step[aid] = step[aid] + 1
            peers[s] = peers.get(s, 0) + 1
        if peers:
            self._recount(peers)
        blocked_by = self.blocked_by
        unblocked: set[int] = set()
        alone: dict[int, Sequence[int]] = {}
        for aid in members:
            s = step[aid]
            group = self._group(s, aid)
            for m in group:
                waits = blocked_by[m]
                if aid in waits:
                    waits.discard(aid)
                    if not waits:
                        unblocked.add(m)
                        self.unblock_events += 1
            behind = {m for m in group if step[m] < s}
            if behind:
                self.blocked_events += 1
                blocked_by[aid] = behind
            else:
                unblocked.add(aid)
                if len(group) == 1:
                    alone[aid] = ()
        return CommitResult(unblocked, alone)

    def validate(self, members: Sequence[int] = (),
                 blockers: Sequence[frozenset[int]] = ()) -> None:
        """Every agent waits on exactly its group-mates behind it."""
        step = self.step
        for aid, s in enumerate(step):
            behind = {m for m in self._group(s, aid) if step[m] < s}
            if self.blocked_by[aid] != behind:
                raise SchedulingError(
                    f"agent {aid} at step {s} waits on "
                    f"{sorted(self.blocked_by[aid])}, not its group-mates "
                    f"behind it {sorted(behind)}")


class NoDependencyDriver:
    """Every call submitted at t=0 (hardware throughput bound)."""

    def __init__(self, kernel: Kernel, engine: ServingEngine, trace: Trace,
                 config: SchedulerConfig, executor: ChainExecutor) -> None:
        self.engine = engine
        self.trace = trace
        self.stats = DriverStats()
        self._remaining = trace.n_calls

    def start(self) -> None:
        trace = self.trace
        self.engine.generate_batch([
            (aid, n_in, n_out, float(s), self._done, (aid, s, func))
            for aid, n_in, n_out, s, func in zip(
                trace.call_agent.tolist(), trace.call_in.tolist(),
                trace.call_out.tolist(), trace.call_step.tolist(),
                trace.call_func.tolist())])
        self.stats.clusters_dispatched = 1
        self.stats.cluster_size_sum = trace.meta.n_agents

    def _done(self, request) -> None:
        self._remaining -= 1
        self.stats.tasks_completed += 1

    def finished(self) -> bool:
        return self._remaining == 0


def critical_path_time(trace: Trace, perf: PerfModel,
                       config: SchedulerConfig | None = None) -> float:
    """Longest dependency path executed alone at batch size 1.

    Dynamic program over the oracle DAG: an agent's step starts when it
    and every member of its step interaction group finished the previous
    step; it then runs its chain at ideal single-request latency.
    """
    config = config or SchedulerConfig()
    start, _ = mine_interaction_groups(trace)
    n_steps, n = start.shape

    # Per-call ideal (batch-1) service time, vectorized: both prefill and
    # decode-iteration latency are affine in their token arguments.
    prompt = trace.call_in.astype(np.float64)
    output = trace.call_out.astype(np.float64)
    context = prompt + output / 2.0
    prefill0 = perf.prefill_time(0)
    prefill_slope = perf.prefill_time(1_000_000) / 1e6 - prefill0 / 1e6
    iter0 = perf.decode_iteration_time(1, 0.0)
    kv_slope = perf.kv_read_time_per_token()
    service = (prefill0 + prefill_slope * prompt
               + output * (iter0 + kv_slope * context))
    rows = (trace.call_agent.astype(np.int64) * n_steps
            + trace.call_step.astype(np.int64))
    chain_time = np.bincount(rows, weights=service,
                             minlength=n * n_steps).reshape(n, n_steps)
    chain_time += config.overhead.agent_step

    finish = np.zeros(n, dtype=np.float64)
    for step in range(n_steps):
        # A group starts when its last member finished: the max of the
        # members' finishes, gathered at the group's start index.
        group_start = np.zeros(n, dtype=np.float64)
        np.maximum.at(group_start, start[step], finish)
        finish = group_start[start[step]] + chain_time[:, step]
    return float(finish.max())
