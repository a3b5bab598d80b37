"""``IterationReplica`` against its one-event-per-iteration oracle.

``IterationReplica`` plans a run of decode iterations and schedules one
kernel event per batch-composition change; ``PerIterationReplica``
(tests/helpers.py) is the engine it replaced, one event per iteration.
Every float either produces must be the other's, so everything here is
compared with ``==``, never ``approx``.

Mutations of ``serving/replica.py`` that must turn this file red
(scripted in ``scripts/mutants.py``; run them when the replica changes):

* ``bisect_left`` for ``bisect_right`` in the cut — an arrival at the
  bit-identical instant of a boundary re-schedules that boundary instead
  of the next one (``test_arrival_at_a_boundary_instant``);
* charging ``busy_time`` for the whole planned window when it is planned
  — a cut or a blackout then leaves iterations charged that never ran
  (the ``busy_time`` rows of the sweep);
* cutting only when the queue was empty before the arrival — a small
  urgent request that jumps a head blocked on KV is admitted an
  iteration-run late (the ``max_running`` / KV-pressure rows);
* a blackout charging only the iterations that passed — the one in
  flight was charged when it started (the blackout rows);
* finishes of one iteration delivered in reverse admission order — the
  oracle finishes them in admission order (the ``delivered`` rows).
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from repro._util import FastRng
from repro.config import SchedulerConfig, ServingConfig
from repro.core import run_replay
from repro.devent import Kernel
from repro.serving import PerfModel, ServingEngine, get_gpu, get_model
from repro.serving.replica import _PLAN_CAP, IterationReplica
from repro.serving.request import LLMRequest

from helpers import PerIterationReplica, per_iteration_oracle, random_trace

#: What a request carries out of a run, all of it bit-comparable.
STAMPS = ("submit_time", "prefill_start", "decode_start", "finish_time",
          "cached_prompt_tokens", "replica_id")
#: L4 + llama3-8b at this fraction holds ~3000 KV tokens: four or five
#: of the requests below, so admission blocks on KV as often as not.
KV_FRACTION = 0.05


def _scripts(seed: int, symmetric: bool) -> tuple[list, list]:
    """Arrival instants and per-agent call chains, all drawn up front.

    Nothing is drawn inside a callback, so what an agent asks next never
    depends on the order two completions were delivered in.
    """
    rng = FastRng(seed)
    n_agents = 40 if symmetric else 8 + rng.integers(0, 8)
    # A few instants shared by several agents, plus stragglers that land
    # inside whatever the replicas are decoding by then.
    bursts = [0.0] + [rng.random() * 6.0 for _ in range(3)]
    starts, chains = [], []
    for _ in range(n_agents):
        starts.append(bursts[rng.integers(0, len(bursts))]
                      if rng.random() < 0.6 else rng.random() * 8.0)
        chain = []
        for pos in range(1 + rng.integers(0, 4)):
            if symmetric:  # every agent asks the same, all at once
                chain.append((640, (100, 30)[pos % 2], 0.0, 0.0))
                continue
            # Every fifth output outlasts the plan cap.
            out = (_PLAN_CAP + 8 + rng.integers(0, 120)
                   if rng.random() < 0.2 else 1 + rng.integers(0, 40))
            chain.append((100 + rng.integers(0, 700), out,
                          float(rng.integers(0, 6)),
                          # gap before the call: half follow at once
                          0.0 if rng.random() < 0.5 else rng.random()))
        chains.append(chain)
    if symmetric:
        starts = [0.0] * n_agents
    return starts, chains


def _drive(seed: int, oracle: bool, *, dp: int = 1, priority: bool = True,
           max_running: int = 256, kv_policy: str = "none",
           blackout: bool = False, symmetric: bool = False,
           out_scale: int = 1) -> dict:
    """One engine run of the seeded world; everything comparable of it."""
    starts, chains = _scripts(seed, symmetric)
    kernel = Kernel()
    config = ServingConfig(
        dp=dp, priority_scheduling=priority,
        max_running_requests=max_running, kv_policy=kv_policy,
        kv_memory_fraction=KV_FRACTION)
    requests, delivered, delayed = [], [], []

    def call(agent: int, pos: int) -> None:
        prompt, out, prio, _ = chains[agent][pos]
        requests.append(engine.generate(
            prompt, out * out_scale, priority=prio, agent_id=agent,
            on_complete=done, context=(agent, pos)))

    def done(request: LLMRequest) -> None:
        delivered.append(request.request_id)
        agent, pos = request.context
        if pos + 1 < len(chains[agent]):
            gap = chains[agent][pos + 1][3]
            if gap == 0.0:
                call(agent, pos + 1)  # same-instant follow-up
            else:
                delayed.append(kernel.call_in(gap, call, agent, pos + 1))

    with per_iteration_oracle() if oracle else nullcontext():
        engine = ServingEngine(kernel, config)
        engine.set_distance_provider(lambda aid: float(aid * 7 % 5))
        for agent, at in enumerate(starts):
            kernel.call_at(at, call, agent, 0)
        if blackout:
            rng = FastRng(seed + 1)
            kernel.call_at(0.4 + rng.random() * 4.0,
                           engine.blackout_replica, rng.integers(0, dp))
        kernel.run()
    assert engine.idle() and len(delivered) == sum(map(len, chains))
    assert type(engine.replicas[0]) is (
        PerIterationReplica if oracle else IterationReplica)
    return {
        "stamps": {r.request_id: tuple(getattr(r, name) for name in STAMPS)
                   for r in requests},
        "delivered": delivered,
        "busy": [r.busy_time for r in engine.replicas]
        + [engine._carry_busy_time],
        "kv": engine.kv_stats(),
        "faults": engine.fault_stats(),
        # Replica-side events: all but the harness's own arrivals.
        "events": (kernel.events_scheduled - len(starts) - len(delayed)
                   - blackout),
    }


def _assert_same(seed: int, **world) -> None:
    new, old = _drive(seed, False, **world), _drive(seed, True, **world)
    for key in ("stamps", "delivered", "busy", "kv", "faults"):
        assert new[key] == old[key], (key, seed, world)
    assert new["events"] <= old["events"]


class TestAgainstPerIterationOracle:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), dp=st.sampled_from([1, 2, 4]),
           priority=st.booleans(),
           max_running=st.sampled_from([2, 3, 256]),
           kv_policy=st.sampled_from(["none", "lru", "distance"]),
           blackout=st.booleans())
    def test_random_worlds_bit_equal(self, seed, dp, priority, max_running,
                                     kv_policy, blackout):
        _assert_same(seed, dp=dp, priority=priority,
                     max_running=max_running, kv_policy=kv_policy,
                     blackout=blackout)

    @pytest.mark.parametrize("dp", [1, 2, 4])
    @pytest.mark.parametrize("priority", [True, False])
    @pytest.mark.parametrize("max_running", [2, 3, 256])
    @pytest.mark.parametrize("kv_policy", ["none", "lru", "distance"])
    def test_seeded_cross_product(self, dp, priority, max_running,
                                  kv_policy):
        # Fixed seeds, so a failure names its cell; every second cell
        # blacks a replica out mid-run.
        for seed in (3, 17):
            _assert_same(seed, dp=dp, priority=priority,
                         max_running=max_running, kv_policy=kv_policy,
                         blackout=(seed + dp + max_running) % 2 == 0)

    def test_generator_reaches_the_hard_cases(self, monkeypatch):
        """The sweep's world cuts windows, crosses the cap, and blacks
        out replicas mid-window — or the sweep proves little."""
        seen = {"cut": 0, "cap": 0, "mid_window_drain": 0}
        on_state_change = IterationReplica._on_state_change
        window_done = IterationReplica._window_done
        drain = IterationReplica._drain_admitted

        def spy_change(self):
            before = len(self._ends)
            on_state_change(self)
            seen["cut"] += 0 < len(self._ends) < before

        def spy_done(self):
            seen["cap"] += (len(self._ends) == _PLAN_CAP
                            and self._running[0][0] > self._iter + _PLAN_CAP)
            window_done(self)

        def spy_drain(self):
            seen["mid_window_drain"] += (
                len(self._ends) > 1
                and self._ends[0] <= self.kernel.now < self._ends[-2])
            return drain(self)

        monkeypatch.setattr(IterationReplica, "_on_state_change", spy_change)
        monkeypatch.setattr(IterationReplica, "_window_done", spy_done)
        monkeypatch.setattr(IterationReplica, "_drain_admitted", spy_drain)
        for seed in (3, 17):
            for dp in (1, 2):
                _drive(seed, False, dp=dp, kv_policy="distance",
                       blackout=True)
        assert all(seen.values()), seen

    @pytest.mark.parametrize("dp,max_running,seed", [
        (2, 256, 5), (4, 3, 1), (4, 256, 19)])
    def test_symmetric_world_timestamps_only(self, dp, max_running, seed):
        """Forty identical prompts at one instant put replicas on
        bit-identical clocks. A window's last boundary gets its kernel
        sequence number when the window is planned, the oracle's one
        iteration before it fires, so two finishes on *different*
        replicas at the *same float instant* may be delivered in the
        other order (the two dp=4 cells do). Every agent's chain asks
        the same thing, so whichever of two same-instant follow-ups is
        submitted first, request ``n`` is the same request: timestamps
        are compared per request, delivery order is not."""
        world = dict(dp=dp, max_running=max_running, symmetric=True)
        new, old = _drive(seed, False, **world), _drive(seed, True, **world)
        assert new["stamps"] == old["stamps"]
        assert sorted(new["delivered"]) == sorted(old["delivered"])
        assert new["busy"] == old["busy"]

    @pytest.mark.parametrize("policy", ["metropolis", "parallel-sync"])
    def test_replay_bit_equal(self, policy):
        trace = random_trace(seed=11, n_agents=8, n_steps=30, p_call=0.4)
        serving = ServingConfig(kv_policy="distance",
                                kv_memory_fraction=KV_FRACTION)

        def replay():
            result = run_replay(trace, SchedulerConfig(policy=policy),
                                serving, collect_timeline=True)
            return ([(e.agent, e.step, e.func_id, e.submit_time,
                      e.finish_time) for e in result.timeline.events],
                    result.completion_time, result.gpu_busy_fraction,
                    result.kv_stats)

        new = replay()
        with per_iteration_oracle():
            old = replay()
        assert new == old


def _pair(cls):
    """Two bare replicas of ``cls`` on one kernel, no router between."""
    kernel = Kernel()
    perf = PerfModel(get_model("llama3-8b"), get_gpu("l4"))
    return kernel, [cls(kernel, perf, replica_id=i) for i in range(2)]


def test_arrival_at_a_boundary_instant():
    """A boundary at the bit-identical instant of an arrival has passed.

    Both replicas decode two identical prompts, so their clocks agree to
    the bit. Replica 0's short request finishes at its tenth boundary;
    its completion submits to replica 1, which is at *its* tenth
    boundary, mid-window. The oracle ran that boundary's event first (it
    was scheduled an iteration earlier than anything this instant
    caused), so the newcomer waits out the eleventh iteration.
    """
    outcomes = []
    for cls in (IterationReplica, PerIterationReplica):
        kernel, (left, right) = _pair(cls)
        late = LLMRequest(5, prompt_tokens=200, output_tokens=5)
        first = LLMRequest(1, 640, 10,
                           on_complete=lambda _r: right.submit(late))
        others = [LLMRequest(2, 640, 50), LLMRequest(3, 640, 20),
                  LLMRequest(4, 640, 50)]
        for replica, request in zip((left, left, right, right),
                                    [first, *others]):
            replica.submit(request)
        kernel.run()
        assert late.submit_time == first.finish_time
        outcomes.append([tuple(getattr(r, name) for name in STAMPS)
                         for r in (first, *others, late)]
                        + [left.busy_time, right.busy_time])
    assert outcomes[0] == outcomes[1]
    # ... and the newcomer did wait: it was not prefilled on arrival.
    assert outcomes[0][4][1] > outcomes[0][4][0]


class TestEventsDoNotScaleWithTokens:
    WORLD = dict(dp=2, kv_policy="distance", max_running=3)

    def test_four_times_the_tokens_same_events(self):
        """Replica events: a prefill end and a completion delivery per
        request, a window end per finish and per cut (cuts <= submits),
        and one more per ``_PLAN_CAP`` planned iterations."""
        for seed in (3, 17):
            short = _drive(seed, False, **self.WORLD)
            long_ = _drive(seed, False, out_scale=4, **self.WORLD)
            _, chains = _scripts(seed, False)
            tokens = sum(out for chain in chains for _, out, _, _ in chain)
            cap_term = 4 * tokens / _PLAN_CAP
            assert abs(long_["events"] - short["events"]) <= cap_term
            assert long_["events"] <= 4 * sum(map(len, chains)) + cap_term
            oracle = _drive(seed, True, out_scale=4, **self.WORLD)
            assert oracle["events"] >= 3 * long_["events"]

    def test_replay_events_bounded_per_call(self):
        trace = random_trace(seed=11, n_agents=8, n_steps=30, p_call=0.4)
        result = run_replay(
            trace, SchedulerConfig(policy="metropolis"),
            ServingConfig(kv_policy="distance",
                          kv_memory_fraction=KV_FRACTION))
        extra = result.driver_stats.extra
        # Four replica-side events per call and the executor's start
        # event, at most one per calling cluster.
        assert (extra["kernel_events_total"] - extra["kernel_events"]
                <= 5 * trace.n_calls
                + result.engine_metrics.total_output_tokens / _PLAN_CAP)
