"""End-to-end correctness of out-of-order execution.

The paper's core claim: OOO scheduling "allows certain agents to advance
in simulation time ahead of others *without affecting the simulation's
outcome*". :class:`TestOOOEquivalence` executes the actual world
simulation (not a trace) cluster-by-cluster in rule-respecting but
adversarially chosen orders and asserts the world evolves bit-identically
to the lock-step reference; :class:`TestReplayMatchesLockStep` replays
random traces under ``metropolis`` and the lock-step ``parallel-sync``
and asserts identical per-agent call sequences.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro._util import FastRng
from repro.config import DependencyConfig, SchedulerConfig, ServingConfig
from repro.core import DependencyRules, run_replay
from repro.core.dependency_graph import SpatioTemporalGraph
from repro.core.parallel import try_parallel_replay
from repro.trace.generator import generate_scale_trace
from repro.world import BehaviorModel, build_smallville, make_personas

from helpers import call_free, memory_contents, per_agent_sequences
from test_golden_replay import InProcessPool, counters


def _model(n_agents, seed):
    world, homes = build_smallville()
    personas = make_personas(n_agents, seed=seed, homes=homes)
    return BehaviorModel(world, personas, seed=seed)


def _world_fingerprint(model):
    return [(a.pos, a.awake, a.activity, a.conversation,
             a.dwell_until, memory_contents(a)) for a in model.agents]


def _run_lockstep(n_agents, seed, start, steps):
    model = _model(n_agents, seed)
    calls = []
    for step in range(start + steps):
        out = model.step_all(step)
        if step >= start:
            calls.append({aid: list(chain) for aid, chain in out.items()})
    return _world_fingerprint(model), calls


def _run_ooo(n_agents, seed, start, steps, order_seed):
    """Execute with the §3.2 rules, choosing dispatch order adversarially."""
    model = _model(n_agents, seed)
    for step in range(start):  # warm up lock-step to the active window
        model.step_all(step)
    rules = DependencyRules(DependencyConfig())
    graph = SpatioTemporalGraph(
        rules, {a.agent_id: a.pos for a in model.agents},
        start_step=start)
    rng = FastRng(order_seed)
    target = start + steps
    calls_by_step = [dict() for _ in range(steps)]
    done = set()
    n = n_agents
    while len(done) < n:
        # random dispatchable cluster, preferring agents *ahead* in time
        # (stresses the rules far more than step-priority order)
        candidates = [a for a in range(n)
                      if a not in done and not graph.running[a]
                      and not graph.is_blocked(a)]
        assert candidates, "OOO execution deadlocked"
        candidates.sort(key=lambda a: (-graph.step[a], rng.random()))
        members = None
        for seed_aid in candidates:
            step = graph.step[seed_aid]
            cluster = {seed_aid}
            frontier = [seed_aid]
            while frontier:
                x = frontier.pop()
                for other in range(n):
                    if (other not in cluster and other not in done
                            and not graph.running[other]
                            and graph.step[other] == step
                            and rules.coupled(graph.pos[x],
                                              graph.pos[other])):
                        cluster.add(other)
                        frontier.append(other)
            if not any(graph.is_blocked(m) for m in cluster):
                members = sorted(cluster)
                break
        assert members is not None, \
            "no dispatchable cluster (min-step clusters must always run)"
        graph.mark_running(members)
        out = model.step_agents(step, members)
        for aid, chain in out.items():
            calls_by_step[step - start][aid] = list(chain)
        graph.commit(members,
                     {aid: model.agents[aid].pos for aid in members})
        graph.validate()  # §3.2 must hold at every state
        for aid in members:
            if graph.step[aid] >= target:
                done.add(aid)
    return _world_fingerprint(model), calls_by_step


class TestOOOEquivalence:
    @pytest.mark.parametrize("order_seed", [1, 2, 3])
    def test_world_state_identical(self, order_seed):
        n_agents, seed = 6, 12
        start, steps = 2300, 120  # morning: movement + wake chains
        ref_state, ref_calls = _run_lockstep(n_agents, seed, start, steps)
        ooo_state, ooo_calls = _run_ooo(n_agents, seed, start, steps,
                                        order_seed)
        assert ooo_state == ref_state

    def test_llm_calls_identical(self):
        n_agents, seed = 6, 12
        start, steps = 2300, 120
        _, ref_calls = _run_lockstep(n_agents, seed, start, steps)
        _, ooo_calls = _run_ooo(n_agents, seed, start, steps, order_seed=7)
        for step_idx in range(steps):
            ref = {aid: chain for aid, chain in ref_calls[step_idx].items()
                   if chain}
            ooo = {aid: chain for aid, chain in ooo_calls[step_idx].items()
                   if chain}
            assert ooo == ref, f"calls diverged at step offset {step_idx}"

    @settings(max_examples=6, deadline=None)
    @given(order_seed=st.integers(0, 10**6))
    def test_equivalence_under_random_orders(self, order_seed):
        n_agents, seed = 4, 3
        start, steps = 2300, 60
        ref_state, _ = _run_lockstep(n_agents, seed, start, steps)
        ooo_state, _ = _run_ooo(n_agents, seed, start, steps, order_seed)
        assert ooo_state == ref_state

    def test_lunchtime_conversations_preserved(self):
        """The socially dense window (conversations couple agents)."""
        n_agents, seed = 8, 21
        start, steps = 4350, 80  # ~12:05pm
        ref_state, _ = _run_lockstep(n_agents, seed, start, steps)
        ooo_state, _ = _run_ooo(n_agents, seed, start, steps, order_seed=5)
        assert ooo_state == ref_state


SCENARIOS = ["smallville", "metro-grid", "market-town", "social-graph"]


class TestReplayMatchesLockStep:
    """Out-of-order replay vs the lock-step oracle on random small
    worlds, coordinate and graph metrics, on every registered scenario:
    metropolis in process and as two worker tasks, and the ``oracle``
    policy — the same controller over mined groups — in process (12
    cells x 50 seeds = 600 worlds)."""

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_matches_lock_step(self, scenario, workers, seed):
        self._check("metropolis", scenario, workers, seed)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_oracle_matches_lock_step(self, scenario, seed):
        self._check("oracle", scenario, 0, seed)

    @staticmethod
    def _check(policy, scenario, workers, seed):
        # Two segments are two regions: one worker task each.
        trace = generate_scale_trace(
            total_agents=24 * (workers or 1), n_steps=10,
            scenario=scenario, base_seed=seed)
        config = SchedulerConfig(policy=policy,
                                 parallel_workers=workers,
                                 validate_causality=True)
        if workers:
            ooo = try_parallel_replay(trace, config, ServingConfig(),
                                      collect_timeline=True,
                                      pool=InProcessPool())
            assert not isinstance(ooo, str), ooo
        else:
            ooo = run_replay(trace, config, collect_timeline=True)
        sync = run_replay(trace, replace(config, policy="parallel-sync",
                                         parallel_workers=0),
                          collect_timeline=True)

        n, steps = trace.meta.n_agents, trace.meta.n_steps
        # Every (agent, step) retires exactly once under both schedules,
        # and both serve exactly the trace's calls.
        for result in (ooo, sync):
            assert result.n_tasks_completed == n * steps
            assert result.n_calls_completed == trace.n_calls
        # OOO reorders across agents but never within one: per-agent
        # call sequences equal the lock-step oracle's bit for bit.
        assert per_agent_sequences(ooo.timeline, n) == \
            per_agent_sequences(sync.timeline, n)

    def test_worker_processes_equal_in_process(self):
        """Real worker processes equal their tasks run here, counter for
        counter, with calls and without; on the call-free copy both
        equal the in-process run."""
        busy = generate_scale_trace(total_agents=50, n_steps=15,
                                    scenario="smallville", base_seed=3)
        assert busy.n_calls > 0
        base = SchedulerConfig(policy="metropolis", validate_causality=True)
        workers = replace(base, parallel_workers=2)
        for trace in (busy, call_free(busy)):
            there = run_replay(trace, workers)
            here = try_parallel_replay(trace, workers, ServingConfig(),
                                       pool=InProcessPool())
            assert there.driver_stats.extra["parallel_workers"] == 2
            assert counters(there) == counters(here)
            assert there.completion_time == here.completion_time
        single = run_replay(trace, base)
        assert there.completion_time == single.completion_time
        assert there.n_tasks_completed == single.n_tasks_completed
