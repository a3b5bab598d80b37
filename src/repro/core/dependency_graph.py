"""§3.3 spatiotemporal dependency graph.

Each node is an agent with its current step and position. A *blocked*
edge ``B -> A`` means A (about to run its step) must wait for B (at a
strictly smaller step) to finish; *coupling* is evaluated by the
clustering layer at dispatch time. Like the scoreboard in hardware
out-of-order execution, the graph is maintained incrementally:

* when a cluster commits, each member advances one step, moves, and has
  its blocker set recomputed (its step gap to laggards grew);
* every waiter registered on a member is re-examined against the member's
  new state and released if the blocking condition no longer holds.

Two properties of the rules make this sound (proved in the test suite):
an agent's commit can never *create* a blocked edge toward an agent at a
larger step (the threshold shrinks faster than the agent can move), and
only agents at strictly smaller steps can block — so re-examining members
and their waiters covers every edge that can change.

The same geometry makes **coupling candidates a by-product of the
blocked edges**. Let a commit take member A to step ``s``. A non-member
B at step ``s`` within ``couple_threshold`` of A's new position stood
there before the commit, while A was at ``s - 1`` and at most
``max_vel`` further away: within ``couple_threshold + max_vel ==
block_threshold(1)``, so B was blocked by A — ``B in waiters[A]`` before
the release (B *running* there is the violation ``component_for``'s
``strict`` mode names). So a member with no same-step peer in its batch
and no waiter at its new step has nobody to couple to: no spatial query
runs for it and it is a component of one — most agent-steps of every
replay workload. This rests on the per-step ``max_vel`` bound
``Trace._validate`` enforces (the slack bound below rests on it too);
``ControllerCore(validate=True)`` re-checks it by full join.

Storage is flat and array-backed (§3.6 light critical path): agent ids
are required to be dense ``0..n-1``, per-agent state lives in plain
lists indexed by id. :meth:`SpatioTemporalGraph.commit` takes a whole
batch of finished clusters (ack coalescing hands the same-instant batch
over at once) plus a mapping of the *movers'* new positions — a member
absent from it, or mapped to where it already stands, stayed put — and
retires it in two passes over the members, whatever the batch size:
the first advances each one (running flag, step, position, slot, batch
peer count), the second runs the tests that need the whole batch
settled (slack and neighbour tests). A stationary member (most
agent-steps of every scenario) skips the geometry outright: no position
store, no cell derivation, no bucket transfer; only its ``(step,
cell)`` slot advances. Movers derive their cell by floor division on
coordinate grids, by :meth:`Space.bucket` elsewhere. The waiter release
runs only when some member holds a waiter. Only *construction* is
vectorized (one numpy pass derives every agent's initial cell).

The graph also owns §3.4 **coupling components**:
:meth:`SpatioTemporalGraph.component_for` is one BFS over the coupling
relation among same-step non-running agents, seeded by the latest
commit's per-member candidates and by the spatial index elsewhere.
Nothing is memoized: the round that finds a dispatchable component
dispatches it, which dissolves it.

The blocker work itself is bounded by two mechanisms that make
steady-state commits (nearly) scan-free:

* **step-bucketed blocker index with coarse spatial bands** — agents
  are sharded into slots keyed by ``(step, cell)``, and the slots are
  grouped into *bands* of ``BAND_CELLS x BAND_CELLS`` fine cells. A
  full scan walks only the bands intersecting the row's worst-case
  reach window (the distance any live laggard's blocking sphere can
  span), so scan work is O(slots near the agent) instead of O(live
  slots) — the property that keeps per-commit cost flat from 2k to
  1M agents. Each slot carries its *exact* step, so it is dismissed
  against ``block_threshold(its own gap)`` with no per-cell min-step
  slop, and only members of surviving slots are touched. The
  ``scanned_slots`` counter records the slots each scan examined (the
  bench matrix asserts it stays O(local) as the population grows);
* **slack-bounded scan skipping** — a full scan records the agent's
  *slack* (the minimum over all other agents of ``dist -
  block_threshold(effective gap)``, clamped at a horizon every
  dismissed slot provably exceeds) and its *near set* (the agents
  inside the horizon). Two terms bound how fast the slack can shrink,
  and both are the agent's own doing: each own commit widens its step
  gap to every threat by one, so each threshold grows by ``max_vel``;
  and the distance to a threat closes by at most ``max_vel`` — but
  only on a commit that actually *moved* the agent. A threat's own
  commits never shrink the margin (its gap closes one step per
  ``max_vel`` of approach). So with ``shrink = max_vel * (commits +
  moves)`` counted since the scan (one per-agent move counter, reset
  at each scan): while ``shrink < slack`` a commit skips blocker work
  entirely; while the shrink stays within the horizon only the
  recorded near set is re-examined (a handful of exact distance
  checks); only past the horizon does the indexed scan re-run. An
  agent that stays on its tile is charged half of a walker's rate and
  re-scans half as often.

Both bounds are conservative, so the maintained edge sets stay
*exactly* equal to a from-scratch recomputation (the dict-reference
fuzz model pins this). A blocker's commit re-checks each of its
waiters exactly: one distance per waiter.

Neither mechanism is Euclidean-specific: the slack bound only needs
the triangle inequality plus the ``max_vel`` movement bound, and the
step-bucketed index only needs 2D integer cells whose
per-axis difference lower-bounds the true distance — the cell contract
every :class:`~repro.core.space.Space` meets (coordinate grids by floor
division, :class:`~repro.core.space.GraphSpace` by landmark BFS levels,
a space with no bound by one constant cell). So there is one commit
path for every metric; ``grid_bucketing`` only selects how a cell and
the coupling window are derived (floor division vs ``Space.bucket`` /
``cell_window``, whose bucket keys an agent caches until it moves) —
both kinds filter on step before any distance. What a distance *costs*
is the space's business: Euclidean checks are inlined, and a hop-metric space
hands over per-source **hop rows** that the three exact-check sites
index by the node index the graph keeps per agent (see
:class:`~repro.core.space.GraphSpace`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import SchedulingError
from .clustering import SpatialIndex
from .rules import DependencyRules
from .space import EuclideanSpace, Position

#: Fine cells per coarse band, per axis. A band groups up to
#: BAND_CELLS^2 cells' slots into one sub-table; scans visit only the
#: bands intersecting the row's reach window. 8 keeps bands small
#: enough that a window is a handful of bands at every benchmarked
#: density while leaving enough slots per band to amortize the dict
#: lookup (swept 4/8/16 on the hotpath matrix).
BAND_CELLS = 8

#: The empty ``blocked_by`` / ``waiters`` entry every agent starts on:
#: one shared object, not a set per agent (most agents never wait or
#: hold a waiter). ``_register_blockers`` swaps in a real set and
#: ``_release_waiters`` puts this one back when a set empties; readers
#: only test and iterate, so they never tell the two apart.
NO_EDGES: frozenset[int] = frozenset()


class _Band:
    """One coarse band's slot sub-table: parallel per-slot columns.

    Plain Python lists, not numpy: bands hold O(local population)
    slots, so scans run a scalar loop over a short list — faster than
    vector-op fixed costs at band size, and append/swap-down stay O(1)
    without capacity management.
    """

    __slots__ = ("steps", "xs", "ys", "keys", "members")

    def __init__(self) -> None:
        self.steps: list[int] = []
        self.xs: list[int] = []
        self.ys: list[int] = []
        self.keys: list[tuple[int, int, int]] = []
        self.members: list[set[int]] = []


@dataclass(slots=True)
class CommitResult:
    """What a cluster commit changed, split by how callers react.

    ``unblocked`` — agents whose blocker set became empty (committed
    members included): dispatch candidates whose cluster *membership* is
    unchanged. ``member_neighbors`` — per member, the ready same-step
    agents within coupling range of its post-commit position: until
    the next commit these are exactly the member's coupling
    candidates, so the controller's cluster BFS seeds from them instead
    of re-querying the spatial index (empty for most members, see the
    module docstring: no query ran for them either).
    """

    unblocked: set[int]
    member_neighbors: dict[int, Sequence[int]]


class AgentSteps:
    """Per-agent step, running flag and blocked edges, and their
    lifecycle: the state every dependency graph keeps, whatever decides
    its edges (geometry here, mined groups in :mod:`repro.core.oracle`).
    """

    def __init__(self, n: int, start_step: int = 0) -> None:
        self.n_agents = n
        #: Flat per-agent state, indexed by agent id.
        self.step: list[int] = [start_step] * n
        self.running: list[bool] = [False] * n
        self.blocked_by: list[set[int] | frozenset[int]] = [NO_EDGES] * n
        #: agents per step value, for O(1) min-step maintenance.
        self._step_counts: dict[int, int] = {start_step: n}
        #: The lowest and highest step any agent holds.
        self.min_step = self.max_step = start_step
        self.blocked_events = 0
        self.unblock_events = 0

    def is_blocked(self, aid: int) -> bool:
        return bool(self.blocked_by[aid])

    def blockers_of(self, aid: int) -> frozenset[int]:
        return frozenset(self.blocked_by[aid])

    def mark_running(self, aids: Iterable[int]) -> None:
        for aid in aids:
            if self.blocked_by[aid]:
                raise SchedulingError(
                    f"agent {aid} dispatched while blocked by "
                    f"{sorted(self.blocked_by[aid])}")
            if self.running[aid]:
                raise SchedulingError(f"agent {aid} already running")
            self.running[aid] = True

    def abort_running(self, aids: Iterable[int]) -> None:
        """Exact inverse of :meth:`mark_running` for a failed cluster:
        nothing was committed, so nothing else in the graph moves."""
        for aid in aids:
            if not self.running[aid]:
                raise SchedulingError(
                    f"cannot abort agent {aid}: not running")
            self.running[aid] = False

    def _recount(self, peers: dict[int, int]) -> None:
        """Step counts and min/max step: ``peers[s]`` members of the
        batch moved from ``s - 1`` to ``s``. Steps only grow, so
        min_step walks up only when the batch drained its bucket."""
        counts = self._step_counts
        for s, k in peers.items():
            c = counts[s - 1] - k
            if c:
                counts[s - 1] = c
            else:
                del counts[s - 1]
            counts[s] = counts.get(s, 0) + k
        top = max(peers)
        if top > self.max_step:
            self.max_step = top
        if self.min_step not in counts:
            ms = self.min_step
            while ms not in counts:
                ms += 1
            self.min_step = ms


class SpatioTemporalGraph(AgentSteps):
    """Incrementally-maintained blocked-edge graph over all agents."""

    #: Bound here too: class-level wrappers (``benchmarks/e2e/layers.py``)
    #: trace this graph's own entry points and leave the oracle's alone.
    mark_running = AgentSteps.mark_running

    def __init__(self, rules: DependencyRules,
                 initial_positions: "Mapping[int, Position] | np.ndarray",
                 start_step: int = 0) -> None:
        self.rules = rules
        if isinstance(initial_positions, np.ndarray):
            # Step-major trace stores hand over one (n, 2) row slice.
            arr0: np.ndarray | None = initial_positions
            n = len(initial_positions)
            pos_list = [(r[0], r[1]) for r in initial_positions.tolist()]
        else:
            arr0 = None
            n = len(initial_positions)
            if sorted(initial_positions) != list(range(n)):
                raise SchedulingError(
                    "agent ids must be dense 0..n-1 for array-backed "
                    f"storage; got {sorted(initial_positions)[:8]}...")
            pos_list = [initial_positions[aid] for aid in range(n)]
        super().__init__(n, start_step)
        self.pos: list[Position] = pos_list
        self.waiters: list[set[int] | frozenset[int]] = [NO_EDGES] * n
        #: Slack-bound scan cache: step of the agent's last full blocker
        #: scan, the slack it measured, and the near set (agents within
        #: the slack horizon then; None = no valid scan yet).
        self._scan_step: list[int] = [start_step] * n
        self._scan_slack: list[float] = [0.0] * n
        self._near: list[list[int] | None] = [None] * n
        #: Commits since that scan which changed the agent's position:
        #: only those can have closed the distance to a threat.
        self._scan_moves: list[int] = [0] * n
        self._base_r = rules.radius_p + rules.max_vel
        #: Hop-metric spaces (GraphSpace) number their nodes: the graph
        #: keeps one node index per agent, written wherever ``pos[aid]``
        #: is — here and at commit — so the exact checks below read
        #: ``row[local[node[bid]]]``, with ``row`` the source's hop row,
        #: instead of calling the space per candidate (the band scan,
        #: the one site a pair from two components can reach, compares
        #: components first). All ``None`` elsewhere. An unknown node is
        #: refused here and at commit, by the space, with its name.
        self._node_index = getattr(rules.space, "node_index", None)
        self._node: list[int] | None = None
        self._node_comp = self._node_local = self._hop_row = None
        if self._node_index is not None:
            self._node = [self._node_index(p) for p in pos_list]
            self._node_comp = rules.space.node_comp
            self._node_local = rules.space.node_local
            self._hop_row = rules.space.hop_row
        #: Members this close to blocking at scan time land in the near
        #: set and are re-examined exactly until the accumulated worst-
        #: case slack shrink exceeds the horizon — only then does the
        #: indexed scan re-run (every ``1 + horizon / (2 * max_vel)``
        #: commits for an agent that moves each step, half as often for
        #: one that stays put). Coordinate grids run a 16-velocity horizon
        #: and fine cells spanning two coupling radii (swept jointly on
        #: the hotpath matrix: ~2x fewer full scans, <=2x2 neighbor
        #: windows, half the slot table per axis). Graph metrics keep
        #: the tighter 8/1x settings: hop-metric worlds have small
        #: diameters, so a wide horizon would pull whole components
        #: into every near set.
        coord = bool(getattr(rules.space, "grid_bucketing", False))
        self._slack_horizon = (16.0 if coord else 8.0) * rules.max_vel
        cell_span = 2.0 if coord else 1.0
        self.index = SpatialIndex(
            rules.space,
            cell=max(cell_span * rules.couple_threshold, 1.0))
        #: Off the grid, each agent's coupling-window bucket keys in walk
        #: order: built from ``cell_window`` at the agent's first join,
        #: ``None`` again once it moves. Grids derive theirs inline.
        self._wkeys: list[list[tuple[int, int]] | None] | None = \
            None if coord else [None] * n
        #: Exact type check: subclasses may override dist/within (e.g.
        #: wrap-around metrics), which the inlined L2 would bypass.
        self._euclid = type(rules.space) is EuclideanSpace
        #: Per-member coupling candidates from the latest commit: exact
        #: until the next commit, so component BFS seeds from them
        #: instead of re-querying the spatial index.
        self._fresh: dict[int, Sequence[int]] = {}
        #: Component BFS scratch buffer.
        self._cbuf: list[int] = []
        #: Coarse band width in fine cells, read at construction.
        self._band = BAND_CELLS
        # Dense ids let the index read positions straight from the
        # graph's own list: commits update one storage, and query_into
        # sees every move for free.
        self.index._positions = self.pos
        #: Banded slot table: slots keyed (step, cellx, celly) live in
        #: per-band sub-tables keyed by (cellx//B, celly//B); _bslot
        #: maps each live key to its (band, index) home. Slots are
        #: densely packed: frees swap the band's last slot down, and
        #: empty bands are deleted, so scans never touch vacated regions.
        self._bands: dict[tuple[int, int], _Band] = {}
        self._bslot: dict[tuple[int, int, int], tuple[_Band, int]] = {}
        #: Current fine cell per agent: commits read the old cell here
        #: instead of re-deriving it from the old position.
        self._cellxy: list[tuple[int, int]] = self._init_cells(arr0)
        # Bulk load: group agents by cell once, hand the index its
        # buckets, and seed one slot per occupied cell — instead of n
        # per-agent insertions.
        groups = self.index.bulk_load_cells(self._cellxy)
        for c, ids in groups.items():
            self._bucket_add((start_step,) + c, ids)
        # instrumentation
        self.scans = 0
        self.scan_skips = 0
        self.near_checks = 0
        #: Slots examined by full scans (band-window walk): the scale
        #: matrix asserts this stays O(local population) per scan as
        #: the world grows.
        self.scanned_slots = 0

    # -- step-bucketed blocker index ---------------------------------------

    def _init_cells(self, arr0: "np.ndarray | None"
                    ) -> list[tuple[int, int]]:
        """Initial fine cell per agent, vectorized where the space allows."""
        cell = self.index.cell
        space = self.rules.space
        if arr0 is not None and self.index._grid:
            pairs = np.floor_divide(arr0, cell).astype(np.int64).tolist()
            return [(c[0], c[1]) for c in pairs]
        if arr0 is not None and getattr(space, "dense_node_cells", False):
            b0, b1 = space.bucket_mat(
                arr0[:, 0].astype(np.int64), cell)
            return list(zip(b0.tolist(), b1.tolist()))
        bucket = space.bucket
        return [bucket(p, cell) for p in self.pos]

    def _bucket_add(self, key: tuple[int, int, int],
                    aids: Iterable[int]) -> None:
        ent = self._bslot.get(key)
        if ent is not None:
            ent[0].members[ent[1]].update(aids)
            return
        B = self._band
        bk = (key[1] // B, key[2] // B)
        band = self._bands.get(bk)
        if band is None:
            self._bands[bk] = band = _Band()
        self._bslot[key] = (band, len(band.steps))
        band.steps.append(key[0])
        band.xs.append(key[1])
        band.ys.append(key[2])
        band.keys.append(key)
        band.members.append(set(aids))

    def _bucket_discard(self, key: tuple[int, int, int],
                        aid: int) -> None:
        band, idx = self._bslot[key]
        members = band.members[idx]
        members.discard(aid)
        if members:
            return
        # Swap the band's last slot down so its columns stay dense.
        del self._bslot[key]
        steps = band.steps
        last = len(steps) - 1
        if idx != last:
            steps[idx] = steps[last]
            band.xs[idx] = band.xs[last]
            band.ys[idx] = band.ys[last]
            last_key = band.keys[last]
            band.keys[idx] = last_key
            band.members[idx] = band.members[last]
            self._bslot[last_key] = (band, idx)
        steps.pop()
        band.xs.pop()
        band.ys.pop()
        band.keys.pop()
        band.members.pop()
        if not steps:
            del self._bands[(key[1] // self._band, key[2] // self._band)]

    # -- coupling components (§3.4) ----------------------------------------

    def component_for(self, aid: int, visited: set[int],
                      strict: bool = False) -> list[int]:
        """BFS of the coupling component around ``aid``, sorted.

        Members are non-running agents at ``aid``'s step connected by
        chains of coupling relations; candidates come from the latest
        commit's per-member lists where available (exact until the
        next commit) and from the spatial index otherwise. Members are
        added to the caller's ``visited`` set, so a round never
        re-seeds the same component. ``strict`` turns a running
        same-step agent inside coupling range into a
        :class:`SchedulingError` (the rules guarantee it cannot happen
        — reaching it means the invariant broke).
        """
        visited.add(aid)
        fresh = self._fresh
        step = self.step
        step_v = step[aid]
        running = self.running
        pos = self.pos
        threshold = self.rules.couple_threshold
        query_into = self.index.query_into
        qbuf = self._cbuf
        off_grid = not self.index._grid
        stack = [aid]
        members: list[int] = []
        while stack:
            a = stack.pop()
            members.append(a)
            candidates = fresh.get(a)
            if candidates is None:
                if off_grid:
                    # A distance off the grid costs a call: filter on
                    # step first, as the commit's join does.
                    candidates = self._join((a,), {})[a]
                else:
                    candidates = query_into(pos[a], threshold, qbuf)
            for other in candidates:
                if other in visited or step[other] != step_v:
                    continue
                if running[other]:
                    if strict:
                        raise SchedulingError(
                            f"coupling invariant violated: agent {other} "
                            f"is running at step {step_v} within coupling "
                            f"range of ready agent {a}")
                    continue
                visited.add(other)
                stack.append(other)
        members.sort()
        return members

    # -- queries ----------------------------------------------------------

    def snapshot(self) -> list[tuple[int, int, Position]]:
        """``(aid, step, pos)`` for every agent (for validation)."""
        return [(aid, self.step[aid], self.pos[aid])
                for aid in range(self.n_agents)]

    def validate(self, members: Sequence[int] = (),
                 blockers: Sequence[frozenset[int]] = ()) -> None:
        """Assert the §3.2 validity condition for the whole state, and
        the full coupling join of each just-committed member.

        The commit takes coupling candidates from the batch and the
        blocked edges alone (module docstring): a same-step agent in
        range of a member must be a batch peer or one the member
        blocked before the commit (``blockers``, per agent); none may
        be running.
        """
        self.rules.validate_state(self.snapshot())
        step = self.step
        batch = set(members)
        radius = self.rules.couple_threshold
        for m in members:
            for b in self.index.query(self.pos[m], radius):
                if b == m or step[b] != step[m]:
                    continue
                if self.running[b] or not (b in batch or m in blockers[b]):
                    raise SchedulingError(
                        f"coupling invariant violated: agent {b} at step "
                        f"{step[b]} in coupling range of committed agent "
                        f"{m} is " + ("running" if self.running[b] else
                                      "neither a batch peer nor its waiter"))

    # -- edge maintenance --------------------------------------------------

    def _check_near(self, ids: list[int], unblocked: set[int]) -> None:
        """Exact blocker checks against each row's recorded near set.

        Sound while the accumulated worst-case slack shrink since the
        recording scan stays within the horizon: every agent outside
        the near set still holds positive slack, so only near members
        can block. A row registers its blockers or joins ``unblocked``.
        """
        self.near_checks += len(ids)
        step = self.step
        pos = self.pos
        near_sets = self._near
        dist = self.rules.space.dist
        euclid = self._euclid
        sqrt = math.sqrt
        base_r = self._base_r
        mv = self.rules.max_vel
        # A near member was within a finite distance at scan time, and
        # nobody leaves a component: no component compare here.
        node = self._node
        local = self._node_local
        for aid in ids:
            s = step[aid]
            pa = pos[aid]
            if euclid:
                pax = pa[0]
                pay = pa[1]
            elif node is not None:
                row = self._hop_row(node[aid])
            blockers: list[int] = []
            for bid in near_sets[aid]:
                g = s - step[bid]
                if g <= 0:
                    continue
                thr = base_r + g * mv
                if euclid:
                    q = pos[bid]
                    dx = pax - q[0]
                    dy = pay - q[1]
                    d = sqrt(dx * dx + dy * dy)
                elif node is not None:
                    d = row[local[node[bid]]]
                else:
                    d = dist(pa, pos[bid])
                if d <= thr:
                    blockers.append(bid)
            if blockers:
                self._register_blockers(aid, blockers)
            else:
                unblocked.add(aid)

    def _scan_rows(self, ids: list[int], svs: list[int],
                   cells: list[tuple[int, int]], ppos: list[Position]
                   ) -> tuple[list[float], list[list[int]], list[list[int]]]:
        """Full blocker scans via the step-bucketed index, one batch.

        Scans are banded: a row's worst-case reach (``(step gap to the
        oldest laggard) * max_vel`` plus the blocking cut, in cells)
        defines a window of coarse bands; only slots in those bands are
        examined — O(local slots), independent of the live-slot total.
        Per examined slot the *exact* per-slot test runs (cell-level
        distance lower bound vs ``block_threshold(its own gap)`` plus
        the slack horizon); the window dismisses the rest a fortiori,
        since every out-of-window slot exceeds even the worst-case-gap
        threshold. Returns per row the measured slack (exact distances
        for examined members, clamped at the horizon every dismissed
        slot provably exceeds), the blockers, and the near set (members
        within the horizon) that licenses scan-free re-checks until the
        horizon is consumed.
        """
        mv = self.rules.max_vel
        base_r = self._base_r
        horizon = self._slack_horizon
        cut = base_r + horizon
        cellsz = self.index.cell
        min_step = self.min_step
        B = self._band
        bands = self._bands
        n_bands = len(bands)
        scanned = 0
        #: (row, slot step, slot members) for every surviving slot.
        pairs: list[tuple[int, int, set[int]]] = []
        for r in range(len(ids)):
            cx, cy = cells[r]
            s = svs[r]
            # Window of bands that can hold a cell within reach: cell
            # distance dc passes the exact test only if (dc-1)*cell <=
            # gap*mv + cut <= (s-min_step)*mv + cut, so rc bounds dc
            # and floor-division monotonicity bounds the band range.
            rc = int(((s - min_step) * mv + cut) / cellsz + 1.0)
            bx_lo = (cx - rc) // B
            bx_hi = (cx + rc) // B
            by_lo = (cy - rc) // B
            by_hi = (cy + rc) // B
            if (bx_hi - bx_lo + 1) * (by_hi - by_lo + 1) >= n_bands:
                # Window spans the table: iterating the live bands is
                # cheaper than probing every window key.
                window = [band for bk, band in bands.items()
                          if bx_lo <= bk[0] <= bx_hi
                          and by_lo <= bk[1] <= by_hi]
            else:
                window = []
                for bkx in range(bx_lo, bx_hi + 1):
                    for bky in range(by_lo, by_hi + 1):
                        band = bands.get((bkx, bky))
                        if band is not None:
                            window.append(band)
            # Scalar pass over the window's slots: bands hold O(local)
            # slots, so a plain loop beats vector-op fixed costs.
            for band in window:
                steps_l = band.steps
                xs = band.xs
                ys = band.ys
                membs = band.members
                scanned += len(steps_l)
                for i in range(len(steps_l)):
                    dcx = xs[i] - cx
                    if dcx < 0:
                        dcx = -dcx
                    dcy = ys[i] - cy
                    if dcy < 0:
                        dcy = -dcy
                    if dcy > dcx:
                        dcx = dcy
                    g = s - steps_l[i]
                    if g < 0:
                        g = 0
                    if (dcx - 1.0) * cellsz <= g * mv + cut:
                        pairs.append((r, steps_l[i], membs[i]))
        self.scanned_slots += scanned

        blockers: list[list[int]] = [[] for _ in ids]
        nears: list[list[int]] = [[] for _ in ids]
        slack = [horizon] * len(ids)
        pos = self.pos
        dist = self.rules.space.dist
        euclid = self._euclid
        sqrt = math.sqrt
        inf = math.inf
        node = self._node
        if node is not None:
            # One hop row per scanned source; exact beyond near_cut,
            # which can only dismiss (d > thr + horizon cannot lower a
            # slack initialised at the horizon).
            comp = self._node_comp
            local = self._node_local
            hop_row = self._hop_row
            rows = [hop_row(node[a]) for a in ids]
        for r, slot_step, slot_members in pairs:
            aid = ids[r]
            s = svs[r]
            g = s - slot_step
            thr = base_r + g * mv if g > 0 else base_r
            near_cut = thr + horizon
            pa = ppos[r]
            if euclid:
                pax = pa[0]
                pay = pa[1]
            elif node is not None:
                row = rows[r]
                ca = comp[node[aid]]
            row_slack = slack[r]
            row_blockers = blockers[r]
            row_near = nears[r]
            blocking = g > 0
            for bid in slot_members:
                if bid == aid:
                    continue
                if euclid:
                    q = pos[bid]
                    dx = pax - q[0]
                    dy = pay - q[1]
                    d = sqrt(dx * dx + dy * dy)
                elif node is not None:
                    nb = node[bid]
                    d = row[local[nb]] if comp[nb] == ca else inf
                else:
                    d = dist(pa, pos[bid])
                sl = d - thr
                if sl < row_slack:
                    row_slack = sl
                if d <= near_cut:
                    row_near.append(bid)
                    if blocking and d <= thr:
                        row_blockers.append(bid)
            slack[r] = row_slack
        return slack, blockers, nears

    # -- lifecycle ----------------------------------------------------------

    def _register_blockers(self, aid: int, blockers: list[int]) -> None:
        """``aid`` waits on every agent of ``blockers``."""
        self.blocked_events += 1
        self.blocked_by[aid] = set(blockers)
        waiters = self.waiters
        for bid in blockers:
            w = waiters[bid]
            if w:
                w.add(aid)
            else:
                waiters[bid] = {aid}

    def commit(self, aids: Iterable[int],
               new_positions: Mapping[int, Position]) -> CommitResult:
        """Retire a batch of finished clusters, one step each.

        ``aids`` may span several clusters (ack coalescing hands the
        whole same-instant batch over at once); every member advances
        one step. ``new_positions`` maps the *movers* to where they
        went: a member absent from it — or mapped to its current
        position, which is how a transport's full dict arrives —
        stayed put and skips the geometry (the replay driver reads the
        trace's ``moved`` mask and gathers positions for movers only).
        Returns a :class:`CommitResult`: agents whose
        blocker set became empty (newly dispatchable candidates,
        committed members included) plus each member's coupling
        candidates, which seed the component BFS of the next round.

        Two passes over the batch: the first advances each member
        (running flag, step, position, cell, slot, batch peers per new
        step), the second needs the settled ``min_step`` and peer counts
        (slack and neighbour tests); scans and the join run batched.
        """
        members = list(aids)
        if not members:
            return CommitResult(set(), {})
        step = self.step
        pos = self.pos
        running = self.running
        index = self.index
        cell = index.cell
        grid = index._grid
        bucket = self.rules.space.bucket
        move_bucketed = index.move_bucketed
        bucket_discard = self._bucket_discard
        bucket_add = self._bucket_add
        bslot = self._bslot
        cells = self._cellxy
        scan_moves = self._scan_moves
        node = self._node
        wkeys = self._wkeys
        new_pos = new_positions.get
        #: Members of this batch per new step.
        peers: dict[int, int] = {}
        # A mover derives its cell (floor division on coordinate grids,
        # Space.bucket elsewhere); only a cell crossing moves buckets.
        for aid in members:
            if not running[aid]:
                raise SchedulingError(f"agent {aid} was not running")
            running[aid] = False
            old_step = step[aid]
            s = step[aid] = old_step + 1
            peers[s] = peers.get(s, 0) + 1
            oc = nc = cells[aid]
            new_p = new_pos(aid)
            if new_p is not None and new_p != pos[aid]:
                if node is not None:
                    node[aid] = self._node_index(new_p)
                pos[aid] = new_p
                scan_moves[aid] += 1
                if grid:
                    nc = (int(new_p[0] // cell), int(new_p[1] // cell))
                else:
                    nc = bucket(new_p, cell)
                    wkeys[aid] = None
                if nc != oc:
                    move_bucketed(aid, oc, nc)
                    cells[aid] = nc
            old_key = (old_step,) + oc
            new_key = (s,) + nc
            ent = bslot[old_key]
            band, idx = ent
            if nc == oc and len(band.members[idx]) == 1 \
                    and new_key not in bslot:
                # Sole occupant, next step's slot free: re-key in place.
                del bslot[old_key]
                bslot[new_key] = ent
                band.steps[idx] = s
                band.keys[idx] = new_key
            else:
                bucket_discard(old_key, aid)
                bucket_add(new_key, (aid,))
        self._recount(peers)

        # Neighbour test (before any release): a member with no batch
        # peer and no waiter at its new step couples to nobody (module
        # docstring); the rest are joined. Blocker work, slack-gated:
        # skip while the recorded slack outlasts the worst-case shrink
        # (max_vel per own commit, max_vel more per move), re-check the
        # near set while the shrink stays within the horizon, scan past
        # it. A blocker registered later is at a smaller step than its
        # waiter, so it never changes a neighbour test.
        min_step = self.min_step
        mv = self.rules.max_vel
        horizon = self._slack_horizon
        scan_step = self._scan_step
        scan_slack = self._scan_slack
        near_sets = self._near
        waiters = self.waiters
        unblocked: set[int] = set()
        ids: list[int] = []
        checks: list[int] = []
        per_member: dict[int, Sequence[int]] = {}
        join: list[int] = []
        skips = 0
        held = False  # does a member hold waiters to release?
        events = self.blocked_events
        for aid in members:
            s = step[aid]
            held_by = waiters[aid]
            if held_by:
                held = True
            if peers[s] == 1:
                for w in held_by:
                    if step[w] == s:
                        join.append(aid)
                        break
                else:
                    per_member[aid] = ()
            else:
                join.append(aid)
            if s <= min_step:
                unblocked.add(aid)
                continue
            near = near_sets[aid]
            if near is not None:
                shrink = mv * (s - scan_step[aid] + scan_moves[aid])
                if shrink < scan_slack[aid]:
                    skips += 1
                    unblocked.add(aid)
                    continue
                if shrink <= horizon:
                    checks.append(aid)
                    continue
            ids.append(aid)
        self.scan_skips += skips
        if checks:
            self._check_near(checks, unblocked)
        if ids:
            self.scans += len(ids)
            svs = [step[a] for a in ids]
            slacks, blockers, nears = self._scan_rows(
                ids, svs, [cells[a] for a in ids], [pos[a] for a in ids])
            for r, aid in enumerate(ids):
                scan_step[aid] = svs[r]
                scan_slack[aid] = slacks[r]
                near_sets[aid] = nears[r]
                scan_moves[aid] = 0
                if blockers[r]:
                    self._register_blockers(aid, blockers[r])
                else:
                    unblocked.add(aid)
        if join:
            self._join(join, per_member)
        # Only a registration above can have given a member a waiter.
        if held or self.blocked_events != events:
            self._release_waiters(members, unblocked)
        self._fresh = per_member
        return CommitResult(unblocked, per_member)

    def _join(self, aids: Iterable[int], out: dict[int, Sequence[int]]
              ) -> dict[int, Sequence[int]]:
        """Fills (and returns) ``out[aid]``: the agents at ``aid``'s
        step within coupling range of it, for each of ``aids`` — the
        spatial join behind the
        commit's candidates and, off the grid, ``component_for``'s
        index query.

        One walk of the agent's cell window, first axis outer (the
        order ``SpatialIndex.query_into`` walks it), the step filter
        before any distance: floor-division cells on coordinate grids
        (the coupling radius never exceeds the cell size, so the window
        spanned by the query box is 2x2 in the common case, up to 3x3
        when the box is boundary-aligned), elsewhere the key list the
        agent cached from the space's ``cell_window`` (a pure function
        of its position, so it holds until the agent moves). The
        Euclidean membership test runs inline; other spaces answer
        ``within`` for the few candidates the step filter lets through.
        """
        step = self.step
        pos = self.pos
        r = self.rules.couple_threshold
        index = self.index
        buckets = index._buckets
        cell = index.cell
        within = index._within
        wkeys = self._wkeys
        euclid = self._euclid
        r2 = r * r
        for aid in aids:
            s = step[aid]
            pa = pos[aid]
            found: list[int] = []
            out[aid] = found
            if wkeys is not None:
                keys = wkeys[aid]
                if keys is None:
                    cx0, cx1, cy0, cy1 = index._window(pa, r, cell)
                    keys = wkeys[aid] = [(bx, by) for bx in range(cx0, cx1 + 1)
                                         for by in range(cy0, cy1 + 1)]
                for key in keys:
                    b = buckets.get(key)
                    if b:
                        for bid in b:
                            if bid != aid and step[bid] == s \
                                    and within(pa, pos[bid], r):
                                found.append(bid)
                continue
            x = pa[0]
            y = pa[1]
            cx0 = int((x - r) // cell)
            cx1 = int((x + r) // cell)
            cy0 = int((y - r) // cell)
            cy1 = int((y + r) // cell)
            for bx in range(cx0, cx1 + 1):
                for by in range(cy0, cy1 + 1):
                    b = buckets.get((bx, by))
                    if not b:
                        continue
                    if euclid:
                        for bid in b:
                            if bid != aid and step[bid] == s:
                                q = pos[bid]
                                dx = x - q[0]
                                dy = y - q[1]
                                if dx * dx + dy * dy <= r2:
                                    found.append(bid)
                    else:
                        for bid in b:
                            if bid != aid and step[bid] == s \
                                    and within(pa, pos[bid], r):
                                found.append(bid)
        return out

    def _release_waiters(self, members: list[int],
                         unblocked: set[int]) -> None:
        """Re-check every waiter of the committed batch exactly."""
        waiters = self.waiters
        step = self.step
        pos = self.pos
        blocked_by = self.blocked_by
        dist = self.rules.space.dist
        euclid = self._euclid
        sqrt = math.sqrt
        base_r = self._base_r
        mv = self.rules.max_vel
        node = self._node
        if node is not None:
            local = self._node_local
            hop_row = self._hop_row
        for b in members:
            w = waiters[b]
            if not w:
                continue
            s_b = step[b]
            pos_b = pos[b]
            for a in list(w):
                g = step[a] - s_b
                if g > 0:
                    thr = base_r + g * mv  # == block_threshold(g)
                    if euclid:
                        q = pos[a]
                        dx = q[0] - pos_b[0]
                        dy = q[1] - pos_b[1]
                        d = sqrt(dx * dx + dy * dy)
                    elif node is not None:
                        # The waiter is the source, as below, and stands
                        # where its own last check left its row; a
                        # blocked pair shares a component.
                        d = hop_row(node[a])[local[node[b]]]
                    else:
                        d = dist(pos[a], pos_b)
                    if d <= thr:
                        continue
                w.discard(a)
                bb = blocked_by[a]
                bb.discard(b)
                if not bb:
                    blocked_by[a] = NO_EDGES
                    unblocked.add(a)
                    self.unblock_events += 1
            if not w:
                waiters[b] = NO_EDGES
