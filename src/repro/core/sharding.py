"""The region planner of the multiprocess controller.

:func:`plan_regions` partitions the *map* into regions no dependency
edge can ever cross, and :func:`assign_shards` packs those shards onto
worker processes (:mod:`repro.core.parallel`); each worker then runs
one :class:`~repro.core.dependency_graph.SpatioTemporalGraph` over the
union of its shards. Nothing here runs in the in-process replay: one
graph over the whole population is as fast as splitting it in one
process (the banded blocker index already keeps a commit's work
O(local)), so the planner only serves the worker pool.

**Why the split is exact, not approximate.** The planner's region
margin is the conservative cross-boundary coupling taken to its sound
extreme: any pair of agents that could *ever* interact over the whole
trace — blocked at the worst-case step gap, or coupled — is placed in
the same atomic region, so the cross-shard interaction set is empty
by construction and every blocked edge, coupling component, waiter
release, and commit result involves agents of one shard only:

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
which case the replay stays in one process: a workload it cannot
split is never split.
"""

from __future__ import annotations

import numpy as np

from .rules import DependencyRules


def plan_regions(trace, rules: DependencyRules,
                 max_shards: int) -> list[list[int]] | None:
    """Partition agents into at most ``max_shards`` independent regions.

    Returns per-shard sorted global agent-id lists, or ``None`` when
    the workload yields fewer than two atomic regions (the caller
    then replays in one process). See the module docstring
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
