"""The chain executor on its own: a dispatch round (`run_round`) is its
clusters issued back to back through `run_cluster` — same engine
submissions, same finish times, same observer records — at one chain
lookup and one kernel event."""

import tracemalloc

import numpy as np
import pytest

from repro import SchedulerConfig, run_replay
from repro.config import OverheadConfig, ServingConfig
from repro.core.tasks import ChainExecutor
from repro.devent import Kernel
from repro.serving import ServingEngine
from repro.instrument.timeline import TimelineRecorder
from repro.trace.schema import Trace, TraceMeta

from helpers import random_trace

N_AGENTS, N_STEPS = 10, 4

#: (agent, step) -> chain length; every other agent-step is call-free.
CHAINS = {
    (1, 1): 2, (2, 1): 1, (3, 1): 3,    # multi-member, every member calls
    (4, 3): 2,                          # singleton with a chain
    (5, 2): 1,                          # partially call-free: 6 has none
    # warm-up chains (step 0) so a later round finds retained KV to pin
    (0, 0): 1, (1, 0): 1, (2, 0): 1, (3, 0): 1, (4, 0): 1, (5, 0): 1,
    (6, 0): 1,
}

#: One round over every cluster shape, at mixed steps and priorities.
ROUND = [
    ([0], 2, 2.0),          # call-free singleton
    ([1, 2, 3], 1, 1.0),
    ([4], 3, 3.0),
    ([5, 6], 2, 2.0),
    ([7], 1, 1.0),          # call-free singleton
    ([8, 9], 3, 3.0),       # call-free pair
]
WARMUP = [([a], 0, 0.0) for a in range(7)]
#: A round of one cluster (it goes through `run_cluster` itself).
SOLO = [([1, 2, 3], 1, 1.0)]


def chain_trace() -> Trace:
    steps, agents, funcs, ins, outs = [], [], [], [], []
    for (aid, step), k in sorted(CHAINS.items()):
        for c in range(k):
            steps.append(step)
            agents.append(aid)
            funcs.append((aid + c) % 10)
            ins.append(200 + 40 * aid + 8 * c)
            outs.append(4 + (aid + c) % 5)
    positions = np.zeros((N_STEPS + 1, N_AGENTS, 2), dtype=np.int16)
    positions[:, :, 0] = np.arange(N_AGENTS) * 20
    meta = TraceMeta(n_agents=N_AGENTS, n_steps=N_STEPS, seed=0,
                     width=256, height=8)
    return Trace(meta, positions,
                 np.asarray(steps, dtype=np.int32),
                 np.asarray(agents, dtype=np.int32),
                 np.asarray(funcs, dtype=np.int16),
                 np.asarray(ins, dtype=np.int32),
                 np.asarray(outs, dtype=np.int32))


class RecordingEngine(ServingEngine):
    """Logs ``(request_id, (agent, step, func))`` in submission order."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.submitted = []

    def submit(self, request) -> None:
        self.submitted.append((request.request_id, request.context))
        super().submit(request)


class Play:
    """One executor over a fresh kernel and engine, everything logged."""

    def __init__(self, serving: ServingConfig) -> None:
        self.kernel = Kernel()
        self.engine = RecordingEngine(self.kernel, serving)
        self.calls = []          # call_observer records
        self.clusters_done = []  # (time, step, members) per cluster
        self.executor = ChainExecutor(
            self.kernel, self.engine, chain_trace(), OverheadConfig(),
            call_observer=lambda *rec: self.calls.append(rec))

    def cluster_done(self, step, members) -> None:
        self.clusters_done.append((self.kernel.now, step, tuple(members)))

    def launch_round(self, launches) -> None:
        self.executor.run_round(launches, self.cluster_done)

    def launch_clusters(self, launches) -> None:
        """The reference: one `run_cluster` per launch, back to back,
        counting each cluster down to its last member."""
        for members, step, priority in launches:
            left = [len(members)]

            def done(aid, s, left=left, members=members):
                left[0] -= 1
                if not left[0]:
                    self.cluster_done(s, members)

            self.executor.run_cluster(members, step, priority, done)

    def observed(self) -> dict:
        return {
            "submitted": self.engine.submitted,
            "finished": self.engine.metrics.records,
            "calls": self.calls,
            "clusters_done": self.clusters_done,
            "calls_issued": self.executor.calls_issued,
            "kv": self.engine.kv_stats(),
            "now": self.kernel.now,
        }


SERVING = {
    "none": ServingConfig(),
    "distance": ServingConfig(kv_policy="distance"),
}


@pytest.mark.parametrize("serving", sorted(SERVING))
@pytest.mark.parametrize("launches, first_calls, pins", [
    (ROUND, [(1, 1), (2, 1), (3, 1), (4, 3), (5, 2)], 5),
    (SOLO, [(1, 1), (2, 1), (3, 1)], 3),
], ids=["mixed", "solo"])
def test_round_equals_clusters_back_to_back(serving, launches, first_calls,
                                            pins):
    by_round, by_cluster = Play(SERVING[serving]), Play(SERVING[serving])
    for play, launch in ((by_round, by_round.launch_round),
                         (by_cluster, by_cluster.launch_clusters)):
        launch(WARMUP)
        play.kernel.run()
        launch(launches)
        # KV pins land at the launch instant, before any start event.
        play.pins_at_launch = play.engine.kv_stats()["prefetch_pins"]
        play.kernel.run()
    assert by_round.pins_at_launch == by_cluster.pins_at_launch
    assert by_round.observed() == by_cluster.observed()

    # The comparison is not vacuous: every chain ran, first calls in
    # launch order, then member order.
    seen = by_round.observed()
    chains = sum(k for (aid, step), k in CHAINS.items() if step == 0
                 or any(aid in m and step == s for m, s, _ in launches))
    assert seen["calls_issued"] == chains == len(seen["calls"])
    ids = [rid for rid, _ in seen["submitted"]]
    assert ids == sorted(ids)
    after_warmup = [ctx[:2] for _, ctx in seen["submitted"][len(WARMUP):]]
    assert after_warmup[:len(first_calls)] == first_calls
    if serving == "distance":
        # every launched agent that retained warm-up KV and calls at
        # its step is pinned once (0 and 6 retained but do not call)
        assert by_round.pins_at_launch == pins


@pytest.mark.parametrize("launch", ["launch_round", "launch_clusters"])
def test_call_free_member_stays_unpinned_through_its_step(launch):
    """Agents 0 and 6 retained warm-up KV and are launched at a step
    without a call (0 alone, 6 beside caller 5): their segments stay
    retained and unpinned from the launch to the end of the step; the
    callers' segments are pinned at the launch."""
    play = Play(SERVING["distance"])
    play.launch_round(WARMUP)
    play.kernel.run()
    kv = play.engine.replicas[0].kv
    assert all(kv.has_retained(aid) for aid in range(7))

    def pinned(aid):
        return kv._retained[aid].pinned

    getattr(play, launch)(ROUND)
    assert not pinned(0) and not pinned(6)
    assert pinned(1) and pinned(4) and pinned(5)
    # Through the round's start event, where call-free members finish.
    play.kernel.run(until=OverheadConfig().agent_step)
    assert (0,) in [m for _, _, m in play.clusters_done]
    assert kv.has_retained(0) and not pinned(0)
    assert kv.has_retained(6) and not pinned(6)


def test_cluster_done_fires_once_per_cluster():
    play = Play(SERVING["none"])
    play.launch_round(ROUND)
    play.kernel.run()
    done = play.clusters_done
    assert sorted((step, m) for _, step, m in done) == \
        sorted((step, tuple(m)) for m, step, _ in ROUND)
    # Call-free clusters are done at the round's one start event, in
    # launch order; a partially call-free one waits for its last chain.
    start = OverheadConfig().agent_step
    assert [(t, m) for t, _, m in done[:3]] == \
        [(start, (0,)), (start, (7,)), (start, (8, 9))]
    assert all(t > start for t, _, _ in done[3:])


def test_round_costs_one_lookup_and_one_event(monkeypatch):
    play = Play(SERVING["none"])
    lookups = []
    bounds = Trace.chain_bounds

    def counted(self, agents, step):
        lookups.append(len(agents))
        return bounds(self, agents, step)

    monkeypatch.setattr(Trace, "chain_bounds", counted)
    play.launch_round(ROUND)
    assert lookups == [sum(len(m) for m, _, _ in ROUND)]
    assert play.kernel.events_scheduled == 1

    play = Play(SERVING["none"])
    play.launch_clusters(ROUND)
    assert play.kernel.events_scheduled == len(ROUND)


def test_executor_holds_no_copy_of_the_call_columns(monkeypatch):
    """The executor reads a call's prompt, output and function through
    views of the trace's columns. What ``core/tasks.py`` allocated and
    still holds halfway through a replay is bookkeeping for the calls
    in flight — far below one pointer per call of the trace, where a
    Python list copy of the three columns would cost three."""
    trace = random_trace(seed=5, n_agents=30, n_steps=100, p_call=0.5)
    kernel = Kernel()
    engine = ServingEngine(kernel, ServingConfig())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ChainExecutor(kernel, engine, trace, OverheadConfig())
        built = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert built < 2048, built

    held = []
    record = TimelineRecorder.record

    def observe(self, *row):
        if len(self.events) == trace.n_calls // 2:
            held.append(sum(
                stat.size for stat in tracemalloc.take_snapshot().filter_traces(
                    [tracemalloc.Filter(True, "*core/tasks.py")]
                ).statistics("filename")))
        record(self, *row)

    monkeypatch.setattr(TimelineRecorder, "record", observe)
    tracemalloc.start()
    try:
        result = run_replay(trace, SchedulerConfig(policy="metropolis"),
                            collect_timeline=True)
    finally:
        tracemalloc.stop()
    assert result.n_calls_completed == trace.n_calls > 2500
    assert held and held[0] < 8 * trace.n_calls, (held, trace.n_calls)

