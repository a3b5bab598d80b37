"""``social-graph``: agents on a small-world network, hop-distance rules.

The paper's §6 extension case made first-class: a Watts-Strogatz-style
ring-with-weak-ties network (see :mod:`repro.world.socialnet`) where
positions are graph nodes, movement is one hop per step, and the
dependency rules measure **hop distance** (``DependencyConfig(radius_p=1,
max_vel=1, metric="graph")``). Home "circles" sit ~5 hops apart around
the ring and four hub venues pull the population together for work,
lunch, and evening gatherings — so sleeping laggards decouple from early
risers by graph distance exactly as SmallVille's villagers do by tiles,
giving the OOO scheduler real headroom, while hub hours produce genuine
coupling clusters. The scenario owns its :class:`GraphSpace`: one tile
over the network, laid out once per segment for concatenated
multi-segment traces, which the landmark-bucketed zero-rescan scheduler
consumes directly.
"""

from __future__ import annotations

from .._util import rng_for
from ..config import DependencyConfig
from ..errors import ScenarioError
from ..serving.profiles import ServingProfile
from ..world.persona import Persona, ScheduleEntry
from ..world.socialnet import (GraphPlanner, SocialGraphBehavior,
                               build_social_world)
from .base import Scenario, hour_step, pick_weighted
from .registry import register_scenario

#: (archetype, work hub or None for a weighted hub pick, weight)
_ARCHETYPES: list[tuple[str, str | None, float]] = [
    ("organizer", "Agora", 0.20),
    ("archivist", "Forum", 0.15),
    ("trader", "Bazaar", 0.20),
    ("gardener", "Commons", 0.15),
    ("wanderer", None, 0.30),
]

_HUB_NAMES = ("Agora", "Forum", "Bazaar", "Commons")

_NAMES = [
    "Anshul", "Beatriz", "Chidi", "Dana", "Emre", "Freya", "Goran",
    "Hilda", "Ines", "Jiro", "Keiko", "Lamine", "Mirela", "Noor",
    "Otso", "Paloma", "Quim", "Renata", "Samir", "Tova", "Ulf",
    "Violeta", "Wesley", "Xia",
]


@register_scenario
class SocialGraphScenario(Scenario):
    """Small-world network with hop-distance (graph metric) rules."""

    name = "social-graph"
    description = ("small-world social network (§6): one-hop moves on a "
                   "ring-with-weak-ties graph, hop-distance dependency "
                   "rules via the landmark-bucketed GraphSpace")
    agents_per_segment = 24
    busy_hour = 12
    quiet_hour = 6
    #: 6:40-7:00am — early risers already commuting between circles
    #: while heavy sleepers lag several steps behind.
    active_window = (2400, 2520)
    social_venues = _HUB_NAMES
    #: Perceive/chat with direct neighbours; information travels one hop
    #: per step. The coupling threshold is therefore 2 hops.
    dependency_config = DependencyConfig(radius_p=1.0, max_vel=1.0,
                                         metric="graph")
    #: Commute gaps between circles spread invocation distances wide
    #: — a strong cell for distance-over-LRU eviction.
    serving_profile = ServingProfile(
        platform="l4-8b", gpus=1, mean_prompt_tokens=640.0,
        mean_output_tokens=22.0, kv_pressure_fraction=0.06,
        description="small-world network on L4/Llama-3-8B")

    def __init__(self) -> None:
        super().__init__()
        self._spaces: dict[int, object] = {}

    # -- world --------------------------------------------------------------

    def build_world(self):
        return build_social_world()

    def planner(self) -> GraphPlanner:
        if self._planner is None:
            world, _ = self.world()
            self._planner = GraphPlanner(world)
        return self._planner

    # -- dependency geometry -------------------------------------------------

    def space(self, segments: int = 1):
        """Hop-distance space over ``segments`` disjoint network copies.

        Concatenated traces offset segment *k*'s node ids by
        ``k * (width + 1)`` (see ``concat_traces``); the space lays out
        that many copies of the one network at that stride
        (:meth:`GraphSpace.tiled`), so cross-segment distances are
        infinite — the graph analogue of the paper's side-by-side map
        segments. Every segment count shares ``space(1)``'s tile: its
        tables and hop rows are built once, whatever the count.
        """
        from ..core.space import GraphSpace  # lazy: avoid import cycle
        space = self._spaces.get(segments)
        if space is None:
            world, _ = self.world()
            if segments == 1:
                space = GraphSpace({
                    (node, 0): tuple((other, 0) for other in neigh)
                    for node, neigh in world.adjacency.items()})
            else:
                space = self.space().tiled(segments, world.width + 1)
            self._spaces[segments] = space
        return space

    # -- population ----------------------------------------------------------

    def model(self, n_agents: int, seed: int) -> SocialGraphBehavior:
        if n_agents < 1:
            raise ScenarioError(
                f"{self.name}: need at least one agent, got {n_agents}")
        world, homes = self.world()
        personas = self.make_personas(n_agents, seed, homes)
        return SocialGraphBehavior(
            world, personas, seed=seed, space=self.space(),
            planner=self.planner(), social_venues=self.social_venues)

    def make_personas(self, n_agents: int, seed: int,
                      homes: list[str]) -> list[Persona]:
        personas = []
        for agent_id in range(n_agents):
            rng = rng_for(seed, "socialgraph-persona", agent_id)
            archetype, work, _ = pick_weighted(rng, _ARCHETYPES)
            if work is None:
                work = _HUB_NAMES[int(rng.integers(0, len(_HUB_NAMES)))]
            home = homes[agent_id % len(homes)]
            # Staggered wake band (6-8am, SmallVille-style): early
            # risers run ahead of sleepers by hop distance.
            wake = hour_step(6.0) + int(rng.integers(0, hour_step(2.0)))
            sleep = hour_step(21.5) + int(rng.integers(0, hour_step(2.0)))
            lunch_hub = _HUB_NAMES[int(rng.integers(0, len(_HUB_NAMES)))]
            evening_hub = _HUB_NAMES[int(rng.integers(0, len(_HUB_NAMES)))]
            lunch_start = hour_step(11.8) + int(rng.integers(
                0, hour_step(0.6)))
            schedule = (
                ScheduleEntry(0, home, "sleeping"),
                ScheduleEntry(wake, home, "morning routine"),
                ScheduleEntry(wake + hour_step(0.6), work, "working"),
                ScheduleEntry(lunch_start, lunch_hub, "lunch"),
                ScheduleEntry(hour_step(13.2), work, "working"),
                ScheduleEntry(hour_step(17.8), evening_hub, "socializing"),
                ScheduleEntry(hour_step(19.6), home, "dinner"),
                ScheduleEntry(sleep, home, "sleeping"),
            )
            personas.append(Persona(
                agent_id=agent_id,
                name=f"{_NAMES[agent_id % len(_NAMES)]}-{agent_id}",
                archetype=archetype,
                home=home,
                work=work,
                wake_step=wake,
                sleep_step=sleep,
                sociability=0.3 + 0.7 * float(rng.random()),
                schedule=schedule,
            ))
        return personas

    # -- invariants ----------------------------------------------------------

    def validate(self) -> None:
        """Graph-world invariants (the GridWorld checks do not apply)."""
        world, homes = self.world()
        if not homes:
            raise ScenarioError(f"{self.name}: no home venues")
        for name in (*homes, *self.social_venues):
            if name not in world.venues:
                raise ScenarioError(
                    f"{self.name}: {name!r} is not a venue")
        for p in self.make_personas(min(8, self.agents_per_segment),
                                    seed=0, homes=homes):
            for venue_name in {p.home, p.work,
                               *(e.venue for e in p.schedule)}:
                if venue_name not in world.venues:
                    raise ScenarioError(
                        f"{self.name}: persona {p.name!r} references "
                        f"unknown venue {venue_name!r}")
        start, end = self.active_window
        if not 0 <= start < end:
            raise ScenarioError(
                f"{self.name}: bad active_window {self.active_window}")
        # Full connectivity: one BFS field must reach every node, or
        # venue-to-venue walks (and the hop metric) break mid-trace.
        field = self.planner().distance_field(
            world.venue(homes[0]).center)
        if len(field) != world.n_nodes:
            raise ScenarioError(
                f"{self.name}: network not connected "
                f"({len(field)}/{world.n_nodes} nodes reachable)")
