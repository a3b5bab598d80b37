"""Scenario subsystem tests: registry semantics, world invariants, and
the paper's core OOO-equivalence property over *every* registered world.

The equivalence test here is the per-scenario CI gate: the live engine
and the rule-driven adversarial executor must both evolve each world
bit-identically to lock-step execution, and metropolis must actually
beat parallel-sync on a trace of each world (otherwise the scenario adds
no OOO headroom and its benchmarks are vacuous).
"""

import numpy as np
import pytest

from repro._util import FastRng
from repro.bench.runner import serving_for
from repro.bench.smoke import scenario_window_trace
from repro.config import DependencyConfig, SchedulerConfig
from repro.core import DependencyRules, run_replay
from repro.core.dependency_graph import SpatioTemporalGraph
from repro.errors import ScenarioError
from repro.live import EchoLLMClient, LiveSimulation
from repro.live.environment import BehaviorProgram, program_for_scenario
from repro.scenarios import (REGISTRY, Scenario, ScenarioRegistry,
                             get_scenario, scenario_names)
from repro.trace import generate_trace

ALL_SCENARIOS = scenario_names()


class _Toy(Scenario):
    name = "toy"
    description = "registry-test scenario"

    def build_world(self):  # pragma: no cover - never constructed
        raise NotImplementedError

    def make_personas(self, n_agents, seed, homes):  # pragma: no cover
        raise NotImplementedError


class TestRegistry:
    def test_builtins_registered(self):
        assert {"smallville", "metro-grid", "market-town",
                "social-graph"} <= set(REGISTRY.names())

    def test_names_sorted(self):
        assert REGISTRY.names() == sorted(REGISTRY.names())

    def test_unknown_scenario(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            get_scenario("atlantis")

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        registry.register(_Toy)
        with pytest.raises(ScenarioError, match="already registered"):
            registry.register(_Toy)

    def test_empty_name_rejected(self):
        class Nameless(_Toy):
            name = ""

        with pytest.raises(ScenarioError, match="empty scenario name"):
            ScenarioRegistry().register(Nameless)

    def test_get_passes_instances_through(self):
        scn = get_scenario("smallville")
        assert get_scenario(scn) is scn

    def test_contains(self):
        registry = ScenarioRegistry()
        assert "toy" not in registry
        registry.register(_Toy)
        assert "toy" in registry

    def test_discover_is_safe_without_install(self):
        # The package is not pip-installed in CI's unit-test job; entry
        # point discovery must be a harmless no-op, not an error.
        registry = ScenarioRegistry()
        loaded = registry.discover()
        assert isinstance(loaded, list)


class TestWorldInvariants:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_validate(self, name):
        get_scenario(name).validate()

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_personas_deterministic_and_well_formed(self, name):
        scn = get_scenario(name)
        _, homes = scn.world()
        a = scn.make_personas(8, seed=3, homes=homes)
        b = scn.make_personas(8, seed=3, homes=homes)
        assert a == b
        for p in a:
            assert 0 < p.wake_step < p.sleep_step
            starts = [e.start_step for e in p.schedule]
            assert starts == sorted(starts)
            assert p.schedule[0].activity == "sleeping"

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_movement_speed_limit(self, name):
        """Traces from every world must satisfy the §3.2 max_vel bound,
        measured in the scenario's own metric (tiles or hops)."""
        scn = get_scenario(name)
        trace = generate_trace(6, 400, seed=1, scenario=name)
        if trace.meta.metric == "graph":
            space = scn.space()
            max_vel = trace.meta.max_vel
            for aid in range(trace.meta.n_agents):
                for step in range(trace.meta.n_steps):
                    d = space.dist(trace.pos(aid, step),
                                   trace.pos(aid, step + 1))
                    assert d <= max_vel
        else:
            deltas = np.abs(np.diff(
                trace.positions_by_step.astype(np.int32),
                axis=0)).sum(axis=2)
            assert deltas.max() <= 1


def _run_lockstep(model, start, steps):
    for step in range(start + steps):
        model.step_all(step)
    return [(a.pos, a.awake, a.activity, a.conversation, a.dwell_until,
             len(a.memory)) for a in model.agents]


def _run_adversarial_ooo(model, start, steps, order_seed, rules=None):
    """Execute with the §3.2 rules, choosing dispatch order adversarially
    (prefer agents *ahead* in time — the hardest order for the rules)."""
    n = len(model.agents)
    for step in range(start):
        model.step_all(step)
    if rules is None:
        rules = DependencyRules(DependencyConfig())
    graph = SpatioTemporalGraph(
        rules, {a.agent_id: a.pos for a in model.agents}, start_step=start)
    rng = FastRng(order_seed)
    target = start + steps
    done = set()
    while len(done) < n:
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
        assert members is not None
        graph.mark_running(members)
        model.step_agents(step, members)
        graph.commit(members,
                     {aid: model.agents[aid].pos for aid in members})
        graph.validate()
        for aid in members:
            if graph.step[aid] >= target:
                done.add(aid)
    return [(a.pos, a.awake, a.activity, a.conversation, a.dwell_until,
             len(a.memory)) for a in model.agents]


class TestOOOEquivalenceAllScenarios:
    """The per-scenario CI gate: OOO == lock-step on every world."""

    N_AGENTS = 6
    SEED = 12

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    @pytest.mark.parametrize("order_seed", [1, 5])
    def test_adversarial_order_state_identical(self, name, order_seed):
        scn = get_scenario(name)
        start, end = scn.active_window
        steps = min(end - start, 100)
        ref = _run_lockstep(scn.model(self.N_AGENTS, self.SEED),
                            start, steps)
        ooo = _run_adversarial_ooo(scn.model(self.N_AGENTS, self.SEED),
                                   start, steps, order_seed,
                                   rules=scn.rules())
        assert ooo == ref

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_live_engine_state_identical(self, name):
        """The threaded engine (real workers) vs parallel-sync."""
        scn = get_scenario(name)
        start, _ = scn.active_window
        target = start + 60
        ref_model = scn.model(self.N_AGENTS, self.SEED)
        for step in range(target):
            ref_model.step_all(step)
        ref = [(a.pos, a.awake, a.activity, len(a.memory))
               for a in ref_model.agents]

        program = program_for_scenario(name, self.N_AGENTS, self.SEED)
        for step in range(start):
            program.model.step_all(step)
        sim = LiveSimulation(program, EchoLLMClient(),
                             scheduler=SchedulerConfig(scenario=name),
                             num_workers=4)
        sim.run(target_step=target, start_step=start)
        ooo = [(a.pos, a.awake, a.activity, len(a.memory))
               for a in program.model.agents]
        assert ooo == ref

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_live_lockstep_policy_matches_too(self, name):
        """parallel-sync through the live engine is also the reference."""
        scn = get_scenario(name)
        start, _ = scn.active_window
        target = start + 40
        ref_model = scn.model(4, 2)
        for step in range(target):
            ref_model.step_all(step)

        program = BehaviorProgram(scn.model(4, 2))
        for step in range(start):
            program.model.step_all(step)
        sim = LiveSimulation(
            program, EchoLLMClient(),
            scheduler=SchedulerConfig(policy="parallel-sync",
                                      scenario=name),
            num_workers=2)
        sim.run(target_step=target, start_step=start)
        assert ([a.pos for a in program.model.agents]
                == [a.pos for a in ref_model.agents])


class TestMetropolisWins:
    """Each scenario must give the OOO scheduler real headroom."""

    @pytest.fixture(scope="class", params=ALL_SCENARIOS)
    def scenario_trace(self, request):
        scn = get_scenario(request.param)
        return scn, scenario_window_trace(scn)

    def test_metropolis_beats_parallel_sync(self, scenario_trace):
        scn, trace = scenario_trace
        serving = serving_for("l4-8b", 1)
        times = {}
        for policy in ("parallel-sync", "metropolis"):
            times[policy] = run_replay(
                trace, SchedulerConfig(policy=policy, scenario=scn.name),
                serving).completion_time
        assert times["metropolis"] < times["parallel-sync"], scn.name

    def test_trace_meta_records_scenario(self, scenario_trace):
        scn, trace = scenario_trace
        assert trace.meta.scenario == scn.name
