"""Region-sharded controller state (the million-agent unlock).

The scheduler's per-commit work is already O(local) thanks to the
banded blocker index, but one controller still owns every agent's
graph state and slot table. At 100k–1M agents the flat structures
themselves (python lists, per-agent sets) dominate.
This module partitions the *map* into regions and gives each region
its own :class:`~repro.core.dependency_graph.SpatioTemporalGraph`
shard over the shared step-major numpy position store, behind a
facade that preserves the single-graph API bit-for-bit.

**Why equivalence is exact, not approximate.** The planner's region
margin is the conservative cross-boundary coupling taken to its sound
extreme: any pair of agents that could *ever* interact over the whole
trace — blocked at the worst-case step gap, or coupled — is placed in
the same atomic region, so the cross-shard interaction set is empty
by construction and every blocked edge, coupling component, wake
step, and commit result is computed by exactly one shard exactly as
the single graph would:

* **coordinate metrics** — every supported coordinate metric
  (L2 / L-inf / L1) lower-bounds distance by the x-axis difference,
  and replayed agents never leave their trace bounding box. Agents
  are sorted by bbox ``xmin`` and swept into one region while
  ``xmin_next <= max(xmax so far) + M`` with
  ``M = radius_p + (n_steps + 1) * max_vel`` — the largest blocking
  threshold any step gap in the trace can produce. Distinct regions
  therefore keep x-distance ``> M`` forever: no blocking, no
  coupling, at any reachable gap;
* **graph metric** — agents move along edges, so they can never leave
  their start node's connected component, and cross-component hop
  distance is infinite. Atomic regions are the components.

Atomic regions are balanced into at most ``max_shards`` shards
(largest region first onto the lightest shard — deterministic), and
the planner returns ``None`` when fewer than two regions exist, in
which case the driver keeps the plain single graph: sharding never
degrades a workload it cannot split.

Shard-local ``min_step`` is sound: only same-shard agents can block,
and each shard's min-step is exact over exactly those agents (a
smaller global min would only widen scans over slots that cannot
pass the exact per-slot test anyway).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .dependency_graph import CommitResult, SpatioTemporalGraph
from .rules import DependencyRules
from .space import Position


def plan_regions(trace, rules: DependencyRules,
                 max_shards: int) -> list[list[int]] | None:
    """Partition agents into at most ``max_shards`` independent regions.

    Returns per-shard sorted global agent-id lists, or ``None`` when
    the workload yields fewer than two atomic regions (the caller
    should then keep the unsharded graph). See the module docstring
    for the exactness argument.
    """
    if max_shards < 2:
        return None
    pos_sa = trace.positions_by_step
    n = pos_sa.shape[1]
    if n < 2:
        return None
    space = rules.space
    if getattr(space, "grid_bucketing", False):
        regions = _coordinate_regions(pos_sa, rules)
    elif hasattr(space, "components_of") and getattr(
            space, "dense_node_cells", False):
        comp = space.components_of(pos_sa[0, :, 0].astype(np.int64))
        regions = _group_by_label(comp)
    elif hasattr(space, "component_of"):
        comp = np.fromiter(
            (space.component_of((int(r[0]), int(r[1])))
             for r in pos_sa[0]), dtype=np.int64, count=n)
        regions = _group_by_label(comp)
    else:
        return None
    if len(regions) < 2:
        return None
    return _balance(regions, max_shards)


def _coordinate_regions(pos_sa: np.ndarray,
                        rules: DependencyRules) -> list[list[int]]:
    """Sweep-merge per-agent x bounding boxes under the trace margin."""
    n_steps = pos_sa.shape[0] - 1
    xs = pos_sa[:, :, 0]
    xmin = xs.min(axis=0).astype(np.float64)
    xmax = xs.max(axis=0).astype(np.float64)
    margin = rules.radius_p + (n_steps + 1) * rules.max_vel
    order = np.argsort(xmin, kind="stable")
    regions: list[list[int]] = []
    cur: list[int] = []
    cur_max = -np.inf
    for aid in order.tolist():
        if cur and xmin[aid] > cur_max + margin:
            regions.append(cur)
            cur = []
            cur_max = -np.inf
        cur.append(aid)
        if xmax[aid] > cur_max:
            cur_max = xmax[aid]
    if cur:
        regions.append(cur)
    return regions


def _group_by_label(labels: np.ndarray) -> list[list[int]]:
    """Agent ids grouped by integer label, regions in label order."""
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    breaks = np.flatnonzero(np.diff(sorted_labels)) + 1
    bounds = [0, *breaks.tolist(), len(order)]
    olist = order.tolist()
    return [olist[bounds[i]:bounds[i + 1]]
            for i in range(len(bounds) - 1)]


def _balance(regions: list[list[int]],
             max_shards: int) -> list[list[int]]:
    """Bin atomic regions into balanced shards, deterministically.

    Largest region first onto the currently lightest shard (ties by
    shard index); regions are indivisible, so the result is exact as
    long as each shard's member set is a union of regions. Members
    are sorted so local dense ids map monotonically to global ids.
    """
    n_shards = min(max_shards, len(regions))
    shards: list[list[int]] = [[] for _ in range(n_shards)]
    loads = [0] * n_shards
    order = sorted(range(len(regions)),
                   key=lambda i: (-len(regions[i]), i))
    for i in order:
        target = loads.index(min(loads))
        shards[target].extend(regions[i])
        loads[target] += len(regions[i])
    for members in shards:
        members.sort()
    return shards


def assign_shards(shard_sizes: list[int],
                  max_workers: int) -> list[list[int]]:
    """Group shard indices onto at most ``max_workers`` workers.

    The multiprocess controller's placement step: the same
    deterministic LPT rule :func:`_balance` applies to regions
    (heaviest shard first onto the lightest worker, ties by worker
    index), so worker loads stay balanced and the parallel critical
    path — the slowest worker — stays close to ``total / workers``.
    Returns per-worker sorted shard-index lists; workers with no shard
    are never created (the list is at most ``len(shard_sizes)`` long).
    """
    n_workers = max(1, min(max_workers, len(shard_sizes)))
    groups: list[list[int]] = [[] for _ in range(n_workers)]
    loads = [0] * n_workers
    order = sorted(range(len(shard_sizes)),
                   key=lambda i: (-shard_sizes[i], i))
    for i in order:
        target = loads.index(min(loads))
        groups[target].append(i)
        loads[target] += shard_sizes[i]
    for group in groups:
        group.sort()
    return groups


class _ShardedIndex:
    """Spatial-query shim over the shards' indexes (global ids).

    Serves the facade's ``graph.index.query`` consumers (interactive
    dependency cones, speculative squash neighborhoods). Shards whose
    region does not contain the query position return nothing, so the
    concatenation equals the single-index result.
    """

    __slots__ = ("_owner",)

    def __init__(self, owner: "ShardedGraph") -> None:
        self._owner = owner

    def query(self, pos: Position, radius: float) -> list[int]:
        owner = self._owner
        out: list[int] = []
        for si, sub in enumerate(owner._shards):
            l2g = owner._l2g[si]
            out.extend(l2g[lid] for lid in sub.index.query(pos, radius))
        return out


class ShardedGraph:
    """Single-graph facade over per-region dependency-graph shards.

    Mirrors the :class:`SpatioTemporalGraph` surface the drivers use —
    ``step``/``pos``/``running``/``blocked_by`` state tables, commit /
    mark_running / component / blocker queries, counters — translating
    between global agent ids and each shard's dense local ids. Local
    ids are assigned in increasing global order per shard, so sorted
    local results translate to sorted global results for free.

    ``blocked_by`` holds *references to the shards' local blocker
    sets*: truthiness (all the drivers read from it) is exact, but the
    contained ids are shard-local — use :meth:`blockers_of` for
    translated contents.
    """

    def __init__(self, rules: DependencyRules,
                 initial_positions: np.ndarray,
                 shard_members: list[list[int]],
                 start_step: int = 0,
                 band_size: int | None = None) -> None:
        self.rules = rules
        n = len(initial_positions)
        self.n_agents = n
        self._shards: list[SpatioTemporalGraph] = []
        self._l2g: list[list[int]] = []
        self._g2l: list[int] = [0] * n
        self._shard_of: list[int] = [0] * n
        self.step: list[int] = [start_step] * n
        self.pos: list[Position] = [
            (r[0], r[1]) for r in initial_positions.tolist()]
        self.running: list[bool] = [False] * n
        self.blocked_by: list[set[int]] = [set()] * n
        covered = 0
        for si, members in enumerate(shard_members):
            self._l2g.append(members)
            g2l = self._g2l
            shard_of = self._shard_of
            for li, g in enumerate(members):
                g2l[g] = li
                shard_of[g] = si
            sub = SpatioTemporalGraph(
                rules,
                initial_positions[np.asarray(members, dtype=np.intp)],
                start_step=start_step, band_size=band_size)
            self._shards.append(sub)
            sub_bb = sub.blocked_by
            for li, g in enumerate(members):
                self.blocked_by[g] = sub_bb[li]
            covered += len(members)
        if covered != n:
            raise ValueError(
                f"shard members cover {covered} of {n} agents")
        self.index = _ShardedIndex(self)

    # -- facade bookkeeping ------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def _grouped(self, aids: Iterable[int]
                 ) -> dict[int, tuple[list[int], list[int]]]:
        """Split global ids by shard: ``si -> (local ids, global ids)``,
        preserving the caller's order within each shard."""
        shard_of = self._shard_of
        g2l = self._g2l
        groups: dict[int, tuple[list[int], list[int]]] = {}
        for g in aids:
            si = shard_of[g]
            entry = groups.get(si)
            if entry is None:
                groups[si] = entry = ([], [])
            entry[0].append(g2l[g])
            entry[1].append(g)
        return groups

    # -- queries -----------------------------------------------------------

    @property
    def min_step(self) -> int:
        return min(s.min_step for s in self._shards)

    @property
    def max_step(self) -> int:
        return max(s.max_step for s in self._shards)

    def is_blocked(self, aid: int) -> bool:
        return bool(self.blocked_by[aid])

    def blockers_of(self, aid: int) -> frozenset[int]:
        si = self._shard_of[aid]
        l2g = self._l2g[si]
        return frozenset(
            l2g[b] for b in self._shards[si].blocked_by[self._g2l[aid]])

    def invocation_distance(self, aid: int) -> float:
        si = self._shard_of[aid]
        return self._shards[si].invocation_distance(self._g2l[aid])

    def state(self, aid: int) -> tuple[int, Position]:
        return self.step[aid], self.pos[aid]

    def snapshot(self) -> list[tuple[int, int, Position]]:
        return [(aid, self.step[aid], self.pos[aid])
                for aid in range(self.n_agents)]

    def validate(self) -> None:
        self.rules.validate_state(self.snapshot())

    # -- coupling components -----------------------------------------------

    def component_for(self, aid: int, visited: set[int],
                      exclude=None, strict: bool = False) -> list[int]:
        si = self._shard_of[aid]
        l2g = self._l2g[si]
        lexclude = None if exclude is None \
            else (lambda lid: exclude(l2g[lid]))
        lmembers = self._shards[si].component_for(
            self._g2l[aid], set(), lexclude, strict)
        members = [l2g[m] for m in lmembers]
        visited.update(members)
        return members

    # -- lifecycle ----------------------------------------------------------

    def mark_running(self, aids: Iterable[int]) -> None:
        aids = list(aids)
        for si, (lids, _) in self._grouped(aids).items():
            self._shards[si].mark_running(lids)
        running = self.running
        for g in aids:
            running[g] = True

    def abort_running(self, aids: Iterable[int]) -> None:
        aids = list(aids)
        for si, (lids, _) in self._grouped(aids).items():
            self._shards[si].abort_running(lids)
        running = self.running
        for g in aids:
            running[g] = False

    def commit(self, aids: Iterable[int],
               new_positions: Mapping[int, Position]) -> CommitResult:
        members = list(aids)
        new_pos = new_positions.get
        shard_of = self._shard_of
        g2l = self._g2l
        #: si -> (local ids, global ids, local movers' new positions)
        groups: dict[int, tuple[list[int], list[int],
                                dict[int, Position]]] = {}
        for g in members:
            si = shard_of[g]
            entry = groups.get(si)
            if entry is None:
                groups[si] = entry = ([], [], {})
            lid = g2l[g]
            entry[0].append(lid)
            entry[1].append(g)
            p = new_pos(g)
            if p is not None:
                entry[2][lid] = p
        unblocked: set[int] = set()
        per_member: dict[int, Sequence[int]] = {}
        step = self.step
        pos = self.pos
        running = self.running
        blocked_by = self.blocked_by
        for si, (lids, gids, moves) in groups.items():
            sub = self._shards[si]
            l2g = self._l2g[si]
            res = sub.commit(lids, moves)
            for lid in res.unblocked:
                unblocked.add(l2g[lid])
            for lid, lst in res.member_neighbors.items():
                per_member[l2g[lid]] = [l2g[x] for x in lst]
            sub_step = sub.step
            sub_pos = sub.pos
            sub_bb = sub.blocked_by
            for lid, g in zip(lids, gids):
                step[g] = sub_step[lid]
                pos[g] = sub_pos[lid]
                running[g] = False
                # Commits rebind members' blocker sets (the scan path
                # installs a fresh set object) — re-alias so global
                # truthiness keeps tracking the shard's state.
                blocked_by[g] = sub_bb[lid]
        return CommitResult(unblocked, per_member)

    # -- counters (summed over shards) ---------------------------------------

    #: :class:`SpatioTemporalGraph` counters the facade reports as the
    #: plain sum over its shards (read once per run, by
    #: :meth:`ControllerCore.sync_stats`).
    _SUMMED = frozenset({
        "blocked_events", "unblock_events", "scans", "scan_skips",
        "near_checks", "wake_checks", "wake_skips", "fallback_scans",
        "scanned_slots"})

    def __getattr__(self, name: str) -> int:
        if name in self._SUMMED:
            return sum(getattr(s, name) for s in self._shards)
        raise AttributeError(name)
