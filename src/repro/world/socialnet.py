"""Small-world social-network world (the §6 non-Euclidean extension).

Agents live on the *nodes of a graph* instead of grid tiles: positions
are ``(node_id, 0)`` pairs (the trailing 0 keeps the trace's 2-column
position layout), movement is one hop along an edge per step (so the
§3.2 ``max_vel = 1`` bound holds in hop distance), and perception/
conversation reach only direct neighbours (``radius_p = 1``). The world
is a deterministic Watts-Strogatz-style small-world network: a ring
lattice with each node linked to its two neighbours on either side,
plus a fixed set of long-range "weak tie" shortcuts. Venues occupy
single nodes — home "circles" spread around the ring and a few hub
nodes everyone converges on — so the diurnal routine produces the same
coupling/blocking texture the grid worlds have, measured in hops.

:class:`SocialGraphBehavior` reuses the full
:class:`~repro.world.behavior.BehaviorModel` decision loop (schedules,
conversations, reflection, the calibrated token model); only movement,
the distance predicates and the perception index's neighbourhood are
overridden, so OOO equivalence rests on exactly the same counter-based-RNG
discipline and step-start perception the grid worlds use.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .._util import rng_for
from ..errors import WorldError
from .behavior import BehaviorModel

#: Positions are ``(node_id, 0)`` so traces/drivers keep their
#: 2-component position handling; ``node_of`` strips the padding.
Node = int


def node_of(pos: tuple[int, int]) -> Node:
    return pos[0]


@dataclass(frozen=True)
class GraphVenue:
    """A named single-node venue of the network (a hub, a home circle)."""

    name: str
    node: Node
    objects: tuple[str, ...] = ()

    @property
    def center(self) -> tuple[int, int]:
        return (self.node, 0)

    def contains(self, x: int, y: int) -> bool:
        return x == self.node and y == 0

    def tiles(self) -> list[tuple[int, int]]:
        return [(self.node, 0)]


class GraphWorld:
    """A graph of nodes with single-node venues (duck-types GridWorld).

    ``width`` is the node count and ``height`` is 1 so trace metadata
    and the §4.3 segment concatenation (x-stride = ``width + 1``) work
    unchanged: segment *k*'s nodes become ``node + k * (width + 1)``.
    """

    def __init__(self, adjacency: dict[Node, list[Node]]) -> None:
        if not adjacency:
            raise WorldError("graph world needs at least one node")
        self.adjacency: dict[Node, tuple[Node, ...]] = {
            node: tuple(sorted(set(neigh)))
            for node, neigh in sorted(adjacency.items())}
        for node, neigh in self.adjacency.items():
            for other in neigh:
                if other not in self.adjacency:
                    raise WorldError(
                        f"edge {node} -> {other} leaves the node set")
        self.n_nodes = len(self.adjacency)
        self.width = self.n_nodes
        self.height = 1
        self.venues: dict[str, GraphVenue] = {}
        self._venue_of_node: dict[Node, GraphVenue] = {}

    # -- construction ------------------------------------------------------

    def add_venue(self, venue: GraphVenue) -> None:
        if venue.name in self.venues:
            raise WorldError(f"duplicate venue {venue.name!r}")
        if venue.node not in self.adjacency:
            raise WorldError(
                f"venue {venue.name!r} sits on unknown node {venue.node}")
        if venue.node in self._venue_of_node:
            raise WorldError(
                f"node {venue.node} already hosts "
                f"{self._venue_of_node[venue.node].name!r}")
        self.venues[venue.name] = venue
        self._venue_of_node[venue.node] = venue

    # -- queries (GridWorld surface) ---------------------------------------

    def venue(self, name: str) -> GraphVenue:
        try:
            return self.venues[name]
        except KeyError:
            raise WorldError(f"unknown venue {name!r}") from None

    def venue_at(self, x: int, y: int) -> GraphVenue | None:
        return self._venue_of_node.get(x) if y == 0 else None

    def random_walkable_tile(self, rng, venue: GraphVenue | None = None
                             ) -> tuple[int, int]:
        """Venues are single nodes, so there is nothing to draw."""
        if venue is None:
            return (int(rng.integers(0, self.n_nodes)), 0)
        return venue.center


class GraphPlanner:
    """Shortest-hop routing with per-target BFS fields (PathPlanner's
    graph twin). ``next_step`` is deterministic: among neighbours that
    strictly reduce the remaining hop count, the lowest node id wins."""

    def __init__(self, world: GraphWorld) -> None:
        self.world = world
        self._fields: dict[Node, dict[Node, int]] = {}

    def distance_field(self, target_pos: tuple[int, int]) -> dict[Node, int]:
        target = node_of(target_pos)
        field = self._fields.get(target)
        if field is None:
            field = {target: 0}
            queue = deque([target])
            adjacency = self.world.adjacency
            while queue:
                node = queue.popleft()
                hops = field[node] + 1
                for neigh in adjacency[node]:
                    if neigh not in field:
                        field[neigh] = hops
                        queue.append(neigh)
            self._fields[target] = field
        return field

    def next_step(self, pos: tuple[int, int],
                  target_pos: tuple[int, int]) -> tuple[int, int]:
        node = node_of(pos)
        field = self.distance_field(target_pos)
        here = field.get(node)
        if here is None or here == 0:
            return pos  # unreachable or already there: stay put
        for neigh in self.world.adjacency[node]:  # sorted: lowest id wins
            if field.get(neigh, here) < here:
                return (neigh, 0)
        return pos  # pragma: no cover - BFS guarantees a descent exists


class SocialGraphBehavior(BehaviorModel):
    """The behavior loop measured in hop distance.

    Overrides only geometry: one-hop movement along BFS routes, the
    perception index keyed by node, and neighbour/conversation predicates
    through the scenario's :class:`~repro.core.space.GraphSpace`.
    Perception and chat both use radius 1 (direct neighbours) — within
    ``radius_p``, so cross-agent reads stay cluster-safe under
    ``DependencyConfig(radius_p=1, max_vel=1, metric="graph")``. Like the
    grid model, perception reads the step-start state.
    """

    CHAT_RADIUS = 1.0
    PERCEPTION_RADIUS = 1.0

    def __init__(self, world: GraphWorld, personas, seed: int,
                 space, planner: GraphPlanner | None = None,
                 social_venues=None) -> None:
        self.space = space
        super().__init__(world, personas, seed=seed,
                         planner=planner or GraphPlanner(world),
                         social_venues=social_venues)

    # -- geometry overrides -------------------------------------------------

    def _near(self, pos):
        """Cells of side 1 are nodes: with radius 1, an observer's
        candidates are on its node and its neighbours'."""
        cells = self._cells
        return [entry for node in (pos[0], *self.world.adjacency[pos[0]])
                for entry in cells.get((node, 0), ())]

    def _in_reach(self, pos, near):
        dist, reach = self.space.dist, self.PERCEPTION_RADIUS
        return [cid for cid, other, _ in near if dist(pos, other) <= reach]

    def _chat_pairs(self, free):
        dist, reach = self.space.dist, self.CHAT_RADIUS
        return [(a, b) for i, a in enumerate(free) for b in free[i + 1:]
                if dist(a.pos, b.pos) <= reach]

    def _move_toward_target(self, agent, rng) -> None:
        """One hop along the shortest route to the target venue's node."""
        venue = self.world.venue(agent.target_venue)
        agent.target_tile = venue.center
        if agent.pos != venue.center:
            agent.pos = self.planner.next_step(agent.pos, venue.center)
        if agent.pos == agent.target_tile:
            agent.target_venue = None
            agent.target_tile = None


# -- the built-in small-world network ---------------------------------------

#: Ring size of one network segment; also the trace x-stride base.
RING_NODES = 240
#: Each node links to its ``K`` nearest ring neighbours per side, so a
#: ring gap of ``g`` is ``ceil(g / K)`` hops.
RING_K = 2
#: Deterministic long-range shortcuts ("weak ties").
N_WEAK_TIES = 7
#: Home circles spread around the ring, one per ``RING_NODES // N`` arc.
N_HOMES = 24

#: (name, node, objects) of the hub venues. The layout keeps every
#: venue pair >= 3 hops apart (homes sit mid-arc between each other and
#: the hubs), beyond the 2-hop coupling threshold — so resting
#: populations decouple while hub hours still pack real clusters.
_HUBS = (
    ("Agora", 0, ("thread", "megaphone", "pinboard")),
    ("Forum", 60, ("lectern", "archive", "gallery")),
    ("Bazaar", 120, ("stall", "ledger", "escrow desk")),
    ("Commons", 180, ("garden", "stage", "long table")),
)

#: Nodes hosting a venue (hubs + home circles), for tie placement.
_VENUE_NODES = frozenset(
    {node for _, node, _ in _HUBS}
    | {idx * (RING_NODES // N_HOMES) + 5 for idx in range(N_HOMES)})


def _ring_gap(a: Node, b: Node) -> int:
    return min((a - b) % RING_NODES, (b - a) % RING_NODES)


def build_social_graph(seed: int = 0) -> dict[Node, list[Node]]:
    """The deterministic small-world adjacency (ring + weak ties).

    Weak ties only join mid-arc nodes at least 3 ring positions from
    every venue, so no shortcut drags two venues inside the coupling
    threshold; agents still route through them between arcs.
    """
    adjacency: dict[Node, list[Node]] = {
        node: [] for node in range(RING_NODES)}
    for node in range(RING_NODES):
        for k in range(1, RING_K + 1):
            adjacency[node].append((node + k) % RING_NODES)
            adjacency[node].append((node - k) % RING_NODES)
    rng = rng_for(seed, "socialnet-ties")
    ties = 0
    while ties < N_WEAK_TIES:
        a = int(rng.integers(0, RING_NODES))
        b = int(rng.integers(0, RING_NODES))
        if min(_ring_gap(a, v) for v in _VENUE_NODES) < 3:
            continue
        if min(_ring_gap(b, v) for v in _VENUE_NODES) < 3:
            continue
        if _ring_gap(a, b) <= RING_K * 5 or b in adjacency[a]:
            continue  # too local (or duplicate) to be a weak tie
        adjacency[a].append(b)
        adjacency[b].append(a)
        ties += 1
    return adjacency


def build_social_world() -> tuple[GraphWorld, list[str]]:
    """Construct the network and its venues; returns (world, home names)."""
    world = GraphWorld(build_social_graph())
    for name, node, objects in _HUBS:
        world.add_venue(GraphVenue(name, node, objects))
    homes: list[str] = []
    spacing = RING_NODES // N_HOMES
    for idx in range(N_HOMES):
        name = f"Circle {idx}"
        world.add_venue(GraphVenue(
            name, idx * spacing + 5, objects=("couch", "terminal",
                                              "kettle")))
        homes.append(name)
    return world, homes
