"""Test utilities: compact synthetic traces and seeded world builders
shared across the scheduler, sharding, fault, and controller suites."""

from __future__ import annotations

import hashlib
import heapq
import math
from collections import deque
from contextlib import contextmanager

import numpy as np

from repro._util import FastRng, UnionFind
from repro.config import STEPS_PER_DAY, DependencyConfig, FaultPolicy
from repro.core.space import GraphSpace
from repro.errors import WorldError
from repro.scenarios import get_scenario
from repro.serving import engine as serving_engine
from repro.serving.memory import KVCacheManager
from repro.serving.perfmodel import MFU_PREFILL
from repro.serving.request import RequestState
from repro.trace.schema import Trace, TraceMeta
from repro.world.memory_stream import MemoryEvent, MemoryStream


def trajectory_trace(trajectories, chains, *, radius_p: float = 4.0,
                     width: int = 64, height: int = 64,
                     seed: int = 0) -> Trace:
    """Fully deterministic trace from explicit per-agent trajectories.

    ``trajectories``: list indexed by agent id; each entry is either a
    single ``(x, y)`` (static agent) or a list of ``n_steps + 1``
    positions walking at most ``max_vel`` per step.
    ``chains``: list of ``(calls_per_step, prompt_tokens, out_tokens)``
    per agent — heavier chains make that agent a laggard.
    """
    n_agents = len(trajectories)
    n_steps = max(len(t) - 1 for t in trajectories
                  if not isinstance(t, tuple))
    positions = np.zeros((n_steps + 1, n_agents, 2), dtype=np.int16)
    for aid, traj in enumerate(trajectories):
        if not isinstance(traj, tuple):
            assert len(traj) == n_steps + 1
        positions[:, aid] = traj
    steps, agents, funcs, ins, outs = [], [], [], [], []
    for aid, (k, n_in, n_out) in enumerate(chains):
        for s in range(n_steps):
            for c in range(k):
                steps.append(s)
                agents.append(aid)
                funcs.append(c % 10)
                ins.append(n_in)
                outs.append(n_out)
    meta = TraceMeta(n_agents=n_agents, n_steps=n_steps, seed=seed,
                     width=width, height=height, radius_p=radius_p)
    return Trace(meta, positions,
                 np.asarray(steps, dtype=np.int32),
                 np.asarray(agents, dtype=np.int32),
                 np.asarray(funcs, dtype=np.int16),
                 np.asarray(ins, dtype=np.int32),
                 np.asarray(outs, dtype=np.int32))


def collision_course_trace(n_steps=24):
    """Head-on collision: a heavy laggard walks right to x=8 and
    retreats while the light agent walks left from 14 toward it.

    The light agent blocks *strictly inside* the laggard's §3.2 sphere
    (head-on closing speed 2 beats the sphere's max_vel growth), and the
    laggard's trajectory really does dip into the agent's perception
    radius: the block is a true interaction, and the pair couples once
    the laggard catches up.
    """
    laggard = [(s if s <= 8 else max(0, 16 - s), 0)
               for s in range(n_steps + 1)]
    walker = [(max(6, 14 - s), 0) for s in range(n_steps + 1)]
    return trajectory_trace([laggard, walker],
                            [(6, 384, 32), (1, 32, 2)])


def disjoint_course_trace(n_steps=24):
    """Anchored but never racing: a heavy laggard sits at (0, 0), a
    light agent at (10, 0) — inside blocking range at gap >= 5 but
    outside the perception radius forever: every block is conservative,
    and the pair never couples.
    """
    laggard = [(0, 0)] * (n_steps + 1)
    agent = [(10, 0)] * (n_steps + 1)
    return trajectory_trace([laggard, agent],
                            [(4, 256, 24), (1, 32, 2)])


def grid_positions(rng: FastRng, n: int, *, x_lo: int = 40,
                   x_hi: int = 120, y_lo: int = 0,
                   y_hi: int = 60) -> dict:
    """Seeded agent positions spanning several fine cells (and region
    boundaries), so commit fuzzes exercise step-bucket migration."""
    return {i: (rng.integers(x_lo, x_hi), rng.integers(y_lo, y_hi))
            for i in range(n)}


def grid_moves(pos):
    """The five Manhattan move candidates (stay + 4-neighborhood) used
    by every coordinate-metric commit fuzz; respects max_vel=1."""
    x, y = pos
    return [(x, y), (x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]


def ring_space(v: int, chords: int = 0, seed: int = 0) -> GraphSpace:
    """A v-node ring with optional random chords, as a GraphSpace."""
    rng = FastRng(seed)
    nodes = [(i, 0) for i in range(v)]
    adj = {node: set() for node in nodes}
    for i in range(v):
        adj[nodes[i]].add(nodes[(i + 1) % v])
        adj[nodes[(i + 1) % v]].add(nodes[i])
    for _ in range(chords):
        a, b = rng.integers(0, v), rng.integers(0, v)
        if a != b:
            adj[nodes[a]].add(nodes[b])
            adj[nodes[b]].add(nodes[a])
    return GraphSpace({k: tuple(sorted(vs)) for k, vs in adj.items()})


def union_space(adjacency: dict, copies: int, stride: int) -> GraphSpace:
    """The reference for a tiled space: one ``GraphSpace`` over the union
    adjacency of ``copies`` copies of a dense ``(id, 0)`` graph, copy
    ``k`` offset by ``k * stride`` (how ``social-graph`` built its
    multi-segment space before it kept one tile)."""
    union = {}
    for k in range(copies):
        off = k * stride
        for (node, _), neigh in adjacency.items():
            union[(node + off, 0)] = tuple((other + off, 0)
                                           for other, _ in neigh)
    return GraphSpace(union)


def slot_snapshot(graph) -> dict:
    """A ``SpatioTemporalGraph``'s live slot table as ``(step, cell) ->
    members`` (the layout checks compare it with a fresh partition)."""
    return {key: band.members[idx]
            for key, (band, idx) in graph._bslot.items()}


def brute_force_clustering(agent_ids, positions, space, threshold):
    """O(n^2) reference for ``geo_clustering``: components of
    ``dist <= threshold`` as sorted id lists, sorted."""
    ids = list(agent_ids)
    uf = UnionFind(len(ids))
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if space.dist(positions[i], positions[j]) <= threshold:
                uf.union(i, j)
    return sorted(sorted(ids[i] for i in group)
                  for group in uf.groups(range(len(ids))))


def tree_chord_space(rng: FastRng, v: int):
    """A random connected graph: spanning tree plus v//2 chord edges.

    Returns ``(space, adj)`` — the adjacency dict doubles as the move
    candidate source (``[pos, *adj[pos]]`` = stay or one hop).
    """
    nodes = [(i, 0) for i in range(v)]
    adj = {node: set() for node in nodes}
    for i in range(1, v):  # random tree keeps it connected
        j = rng.integers(0, i)
        adj[nodes[i]].add(nodes[j])
        adj[nodes[j]].add(nodes[i])
    for _ in range(v // 2):  # extra chords make cycles
        a, b = rng.integers(0, v), rng.integers(0, v)
        if a != b:
            adj[nodes[a]].add(nodes[b])
            adj[nodes[b]].add(nodes[a])
    space = GraphSpace({k: tuple(sorted(vs)) for k, vs in adj.items()})
    return space, adj


def fast_fault_policy(**overrides) -> FaultPolicy:
    """FaultPolicy with near-zero backoffs so retry paths run fast."""
    defaults = dict(backoff_base=0.0001, backoff_max=0.001,
                    watchdog_timeout=30.0, worker_join_grace=2.0)
    defaults.update(overrides)
    return FaultPolicy(**defaults)


def random_trace(seed: int, n_agents: int = 6, n_steps: int = 40,
                 width: int = 40, height: int = 30,
                 p_call: float = 0.35, max_chain: int = 3,
                 radius_p: float = 4.0) -> Trace:
    """A random-walk trace with sparse small LLM calls.

    Positions move at most one tile per step (Manhattan), so the §3.2
    movement-speed assumption holds by construction.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    positions = np.zeros((n_steps + 1, n_agents, 2), dtype=np.int16)
    positions[0, :, 0] = rng.integers(0, width, n_agents)
    positions[0, :, 1] = rng.integers(0, height, n_agents)
    moves = np.array([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
    for s in range(n_steps):
        step_moves = moves[rng.integers(0, len(moves), n_agents)]
        nxt = positions[s].astype(np.int32) + step_moves
        nxt[:, 0] = np.clip(nxt[:, 0], 0, width - 1)
        nxt[:, 1] = np.clip(nxt[:, 1], 0, height - 1)
        positions[s + 1] = nxt
    steps, agents, funcs, ins, outs = [], [], [], [], []
    for aid in range(n_agents):
        for s in range(n_steps):
            if rng.random() < p_call:
                for _ in range(int(rng.integers(1, max_chain + 1))):
                    steps.append(s)
                    agents.append(aid)
                    funcs.append(int(rng.integers(0, 10)))
                    ins.append(int(rng.integers(32, 128)))
                    outs.append(int(rng.integers(2, 8)))
    meta = TraceMeta(n_agents=n_agents, n_steps=n_steps, seed=seed,
                     width=width, height=height, radius_p=radius_p)
    return Trace(meta, positions,
                 np.asarray(steps, dtype=np.int32),
                 np.asarray(agents, dtype=np.int32),
                 np.asarray(funcs, dtype=np.int16),
                 np.asarray(ins, dtype=np.int32),
                 np.asarray(outs, dtype=np.int32))


def per_agent_sequences(timeline, n_agents: int) -> dict[int, list]:
    """``[(step, func_id), ...]`` per agent, in submission order: the
    order-independent fact every equivalent schedule must reproduce."""
    seqs = {aid: [] for aid in range(n_agents)}
    for e in sorted(timeline.events, key=lambda e: (e.submit_time,
                                                    e.agent, e.step)):
        seqs[e.agent].append((e.step, e.func_id))
    return seqs


class PerIterationReplica:
    """Reference engine: one kernel event per decode iteration.

    The body ``IterationReplica`` had before it planned whole windows —
    a countdown per running request, ``decode_iteration_time`` asked of
    the perf model every iteration — kept as the differential oracle:
    whatever ``IterationReplica`` schedules must produce these floats.
    Its queueing and admission (``submit``, ``_peek_admissible``, the
    prefill start, ``_finish`` and ``drain``) are its own copy of the
    code the two replicas once shared, so the oracle never checks the
    replica against itself. It speaks the engine's replica interface:
    the constructor, ``submit``, ``idle``, ``drain``, ``kv``,
    ``outstanding`` and ``busy_time``.
    """

    def __init__(self, kernel, perf, replica_id: int,
                 priority_scheduling: bool = True,
                 max_running_requests: int = 256,
                 on_request_finish=None,
                 prefix_cache_hit_rate: float = 0.0,
                 kv_policy: str = "none",
                 distance_fn=None) -> None:
        self.kernel = kernel
        self.perf = perf
        self.replica_id = replica_id
        self.priority_scheduling = priority_scheduling
        self.max_running_requests = max_running_requests
        self.on_request_finish = on_request_finish
        self.prefix_cache_hit_rate = prefix_cache_hit_rate
        self.kv = KVCacheManager(perf.kv_capacity_tokens, policy=kv_policy,
                                 distance_fn=distance_fn)
        self._waiting = []
        self._arrival_seq = 0
        self.outstanding = 0
        self.busy_time = 0.0
        self._prefilling = None
        #: request -> remaining output tokens
        self._running = {}
        self._kv_context = 0.0
        self._event = None

    # -- queue and admission ----------------------------------------------

    def submit(self, request) -> None:
        self.kv.check_feasible(request)
        request.submit_time = self.kernel.now
        request.replica_id = self.replica_id
        self._arrival_seq += 1
        key = request.priority if self.priority_scheduling else 0.0
        heapq.heappush(self._waiting, (key, self._arrival_seq, request))
        self.outstanding += 1
        if self._event is None:
            self._schedule_next()

    def _peek_admissible(self):
        """Head-of-line request if it can be admitted right now."""
        if not self._waiting:
            return None
        request = self._waiting[0][2]
        if len(self._running) + 1 > self.max_running_requests:
            return None
        if not self.kv.fits(request):
            return None
        return request

    def _start_prefill(self, request):
        """Admit the queue head ``request``; return its prefill-end event."""
        heapq.heappop(self._waiting)
        request.cached_prompt_tokens = self.kv.reserve(request)
        request.state = RequestState.PREFILL
        request.prefill_start = self.kernel.now
        self._prefilling = request
        cold = request.prompt_tokens - request.cached_prompt_tokens
        effective = int(cold * (1.0 - self.prefix_cache_hit_rate))
        # ``PerfModel.prefill_time`` spelled out, not called: the oracle
        # re-derives the constants the perf model caches.
        perf = self.perf
        duration = perf._overhead + (2.0 * perf.model.params_active
                                     * effective
                                     / (MFU_PREFILL * perf._flops))
        self.busy_time += duration
        return self.kernel.call_in(duration, self._prefill_done, request)

    def idle(self) -> bool:
        return (not self._running and not self._waiting
                and self._prefilling is None)

    def _finish(self, request) -> None:
        request.state = RequestState.FINISHED
        request.finish_time = self.kernel.now
        self.kv.release(request)
        if self.kv.policy != "none":
            self.kv.retain(request.agent_id, request.total_tokens,
                           now=self.kernel.now)
        self.outstanding -= 1
        if self.on_request_finish is not None:
            self.on_request_finish(request)
        if request.on_complete is not None:
            self.kernel.call_at(self.kernel.now, request.on_complete, request)

    # -- one event per iteration ------------------------------------------

    def _schedule_next(self) -> None:
        request = self._peek_admissible()
        if request is not None:
            self._event = self._start_prefill(request)
            return
        if self._running:
            batch = len(self._running)
            duration = self.perf.decode_iteration_time(batch, self._kv_context)
            self.busy_time += duration
            self._event = self.kernel.call_in(duration, self._iteration_done)
            return
        self._event = None

    def _prefill_done(self, request) -> None:
        self._prefilling = None
        request.state = RequestState.DECODE
        request.decode_start = self.kernel.now
        self._running[request] = request.output_tokens
        self._kv_context += request.prompt_tokens
        self._event = None
        self._schedule_next()

    def _iteration_done(self) -> None:
        finished = []
        for request in self._running:
            self._running[request] -= 1
            if self._running[request] == 0:
                finished.append(request)
        self._kv_context += len(self._running)
        for request in finished:
            del self._running[request]
            self._kv_context -= request.total_tokens
            self._finish(request)
        self._event = None
        self._schedule_next()

    # -- blackout -----------------------------------------------------------

    def drain(self) -> list:
        """Crash: cancel the event, release reservations, return every
        in-flight request (admitted by id, then the queue in order)."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        admitted = list(self._running)
        self._running.clear()
        self._kv_context = 0.0
        if self._prefilling is not None:
            admitted.append(self._prefilling)
            self._prefilling = None
        admitted.sort(key=lambda r: r.request_id)
        waiting = [heapq.heappop(self._waiting)[2] for _ in
                   range(len(self._waiting))]
        for request in admitted:
            self.kv.release(request)
            request.state = RequestState.QUEUED
            request.cached_prompt_tokens = 0
        self.outstanding = 0
        return admitted + waiting


@contextmanager
def per_iteration_oracle():
    """Replicas built inside (a blackout's replacement too) are the
    oracle: it swaps the engine module's one replica class."""
    real = serving_engine.IterationReplica
    serving_engine.IterationReplica = PerIterationReplica
    try:
        yield
    finally:
        serving_engine.IterationReplica = real


def reference_stable_seed(*parts: int | str) -> int:
    """``repro._util.stable_seed`` hashed part by part: one ``update``
    per part and one per separator. The one-call hash must give the
    same seed for every key."""
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(str(p).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little") & (2**63 - 1)


def reference_ranking(events, now_step: int,
                      query_keywords: frozenset[str]) -> list[MemoryEvent]:
    """The memory ranking as ``MemoryStream`` computed it through PR 19:
    a ``_score`` call per event and a full sort per retrieval. The
    memoised, table-driven ranking must equal it element for element."""
    def score(event: MemoryEvent) -> float:
        age = now_step - event.step
        recency = MemoryStream.RECENCY_DECAY ** age if age < 4000 else 0.0
        if query_keywords:
            overlap = len(query_keywords & event.keywords)
            relevance = 0.1 + overlap / len(query_keywords)
        else:
            relevance = 1.0
        return recency * (0.5 + event.importance) * relevance

    return sorted(events, key=lambda e: -score(e))


def memory_contents(agent) -> tuple:
    """An agent's memory as a comparable value: every held event (step,
    kind, keywords, importance, tokens) and the importance summed since
    the last reflection. Its length alone says nothing once the stream
    is full (64 events)."""
    return tuple(agent.memory), agent.memory.importance_since_reflection


def agent_snapshot(agent) -> tuple:
    """Every field of an ``AgentState`` a step may change, comparable
    across deep copies (the memory by its contents)."""
    conv = agent.conv_state
    return (agent.pos, agent.target_venue, agent.target_tile, agent.awake,
            agent.activity, agent.conversation,
            conv and (conv.partner, conv.freeze_left), memory_contents(agent),
            agent.dwell_until, agent.last_reflection)


def live_state(model) -> list[tuple]:
    """What the live-vs-lock-step tests compare: each agent's position,
    ``awake``, activity and memory contents."""
    return [(a.pos, a.awake, a.activity, memory_contents(a))
            for a in model.agents]


def step_start(model) -> dict:
    """``aid -> (pos, activity)`` of every agent: the state a step's
    perception must read when taken before the step."""
    return {a.agent_id: (a.pos, a.activity) for a in model.agents}


def coupling_components(model, scenario: str) -> list[list[int]]:
    """The agents' coupling clusters now: pairs within ``radius_p +
    max_vel`` in the scenario's metric, closed; each sorted, in order of
    their lowest id."""
    dep = get_scenario(scenario).dependency_config or DependencyConfig()
    reach = dep.radius_p + dep.max_vel
    dist = model.space.dist if dep.metric == "graph" else math.dist
    uf = UnionFind(len(model.agents))
    for a in model.agents:
        for b in model.agents[a.agent_id + 1:]:
            if dist(a.pos, b.pos) <= reach:
                uf.union(a.agent_id, b.agent_id)
    return list(uf.groups(range(len(model.agents))))


def reference_perceived(model, aid: int, start: dict) -> list[tuple]:
    """The scan the perception index replaces: ``(id, activity)`` of
    every other agent whose position in ``start`` (:func:`step_start`,
    taken before the step) lies within the model's perception radius of
    agent ``aid``'s position now, by the model's metric, in id order."""
    pos = model.agents[aid].pos
    space = getattr(model, "space", None)  # graph worlds: hop distance
    dist = math.dist if space is None else space.dist
    return [(other, activity)
            for other, (other_pos, activity) in sorted(start.items())
            if other != aid
            and dist(pos, other_pos) <= model.PERCEPTION_RADIUS]


def reference_up(model, step: int, members) -> list:
    """``BehaviorModel.step_agents``'s ``up`` list as it read before the
    model kept a roster: a scan of the sorted ``members``' ``awake`` /
    ``conversation`` / ``wake_step``. The roster must pick the same."""
    day_step = step % STEPS_PER_DAY
    return [agent for agent in map(model.agents.__getitem__, members)
            if agent.awake or agent.conversation is not None
            or agent.persona.wake_step == day_step]


def reference_chat_pairs(free, radius: float = 2.0) -> list[tuple]:
    """``BehaviorModel._chat_pairs`` as it ran through PR 20: every pair
    of ``free`` against the distance predicate, in ``(i, j)`` order. The
    x-sweep must return the same pairs in the same order."""
    reach = radius ** 2
    spots = [(agent, *agent.pos) for agent in free]
    return [(a, b) for i, (a, ax, ay) in enumerate(spots)
            for b, bx, by in spots[i + 1:]
            if (dx := ax - bx) * dx + (dy := ay - by) * dy <= reach]


def reference_venue_at(world, x: int, y: int):
    """``GridWorld.venue_at`` as it ran through PR 20: a scan of the
    venues in declaration order. The tile table must agree everywhere."""
    for venue in world.venues.values():
        if venue.contains(x, y):
            return venue
    return None


def reference_distance_field(world, goal: tuple[int, int]) -> np.ndarray:
    """``PathPlanner.distance_field``'s flood as it ran through PR 20:
    a deque of tiles, scalar by scalar. The wavefront must equal it."""
    unreachable = np.iinfo(np.int32).max
    h, w = world.height, world.width
    field = np.full((h, w), unreachable, dtype=np.int32)
    field[goal[1], goal[0]] = 0
    queue = deque([goal])
    walkable = world.walkable
    while queue:
        x, y = queue.popleft()
        d = field[y, x] + 1
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if (0 <= nx < w and 0 <= ny < h and walkable[ny, nx]
                    and field[ny, nx] == unreachable):
                field[ny, nx] = d
                queue.append((nx, ny))
    return field


def is_dwelling(agent, step: int) -> bool:
    """The specification of a dwelling step: awake, settled, before its
    next decision, inside its routine block, no reflection due. Such a
    step draws nothing and writes nothing, so it may key no stream."""
    persona, day_step = agent.persona, step % STEPS_PER_DAY
    return (agent.conversation is None and agent.awake
            and agent.target_venue is None and step < agent.dwell_until
            and day_step < persona.sleep_step
            and persona.block_at(day_step).activity
            in (agent.activity, "sleeping")
            and not (agent.memory.importance_since_reflection > 12.0
                     and step - agent.last_reflection > 180))


def reference_astar(world, start: tuple[int, int],
                    goal: tuple[int, int]) -> list[tuple[int, int]]:
    """Textbook A* with Manhattan heuristic: ``PathPlanner``'s reference."""
    if not world.is_walkable(*start) or not world.is_walkable(*goal):
        raise WorldError("start/goal not walkable")

    def h(p: tuple[int, int]) -> int:
        return abs(p[0] - goal[0]) + abs(p[1] - goal[1])

    open_heap: list[tuple[int, int, tuple[int, int]]] = [(h(start), 0, start)]
    g_score = {start: 0}
    came: dict[tuple[int, int], tuple[int, int]] = {}
    seq = 0
    while open_heap:
        _, _, current = heapq.heappop(open_heap)
        if current == goal:
            path = [current]
            while current in came:
                current = came[current]
                path.append(current)
            path.reverse()
            return path
        for nxt in world.neighbors(*current):
            tentative = g_score[current] + 1
            if tentative < g_score.get(nxt, 1 << 30):
                g_score[nxt] = tentative
                came[nxt] = current
                seq += 1
                heapq.heappush(open_heap, (tentative + h(nxt), seq, nxt))
    raise WorldError(f"no path from {start} to {goal}")


def reference_bucket_range(space: GraphSpace, pos, radius: float,
                           cell: float):
    """Every cell that may hold a node within ``radius`` of ``pos``, as
    a generator written without ``GraphSpace.cell_window``: the oracle
    for the window's four bounds."""
    l0, l1, comp = space._level_of(pos)[:3]
    span = space._span(cell)
    base = comp * span
    b0_lo = max(0, int((l0 - radius) // cell))
    b0_hi = min(span - 2, int((l0 + radius) // cell))
    b1_lo = max(0, int((l1 - radius) // cell))
    b1_hi = min(span - 2, int((l1 + radius) // cell))
    for b0 in range(b0_lo, b0_hi + 1):
        for b1 in range(b1_lo, b1_hi + 1):
            yield (base + b0, b1)
