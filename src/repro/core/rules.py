"""The §3.2 dependency rules and the validity condition they enforce.

Temporal causality requires that an agent never perceives another agent
that exists at a different simulation time. Formally (§3.2), a state is
*valid* iff for all agents A, B at steps ``StepA != StepB``::

    dist(A, B) > radius_p + (|StepA - StepB| - 1) * max_vel

The Appendix A derivation turns this into two conservative scheduling
rules, both implemented here:

* **coupled** — same step and ``dist <= radius_p + max_vel``: the agents
  must advance together (one cluster);
* **blocked** — ``StepA > StepB`` and
  ``dist <= (StepA - StepB + 1) * max_vel + radius_p``: A may not start
  its step until B finishes StepB. (Agents at *later* steps never block:
  the derivation's third case.)

The rules over-approximate (they guard *potential* writes), which is what
makes them checkable without a data-race detector — and what leaves the
oracle gap measured in §4.
"""

from __future__ import annotations

from typing import Iterable

from ..config import DependencyConfig
from ..errors import CausalityViolation, ScenarioError
from .space import Position, Space, space_for


def rules_for(config=None, meta=None) -> "DependencyRules":
    """Dependency rules for a run, honoring the workload's scenario.

    The scenario name resolves from the :class:`SchedulerConfig` first,
    then from the trace metadata. A registered scenario that declares
    its own dependency geometry (``Scenario.dependency_config`` — e.g.
    graph-metric worlds, which also own the :class:`GraphSpace` over
    their generated network) is authoritative; otherwise — and for
    unknown names, synthetic traces, or no scenario at all — the
    config's ``dependency`` parameters apply unchanged. ``meta`` also
    supplies the segment count so concatenated graph worlds get the
    disjoint-union space matching their offset node ids.
    """
    dependency = config.dependency if config is not None \
        else DependencyConfig()
    name = (getattr(config, "scenario", "") or
            getattr(meta, "scenario", "") or "")
    rules = None
    if name:
        from ..scenarios import get_scenario  # lazy: avoid import cycle
        try:
            scenario = get_scenario(name)
        except ScenarioError:
            scenario = None
        if scenario is not None:
            rules = scenario.rules(config,
                                   segments=getattr(meta, "segments", 1)
                                   or 1)
    if rules is None:
        rules = DependencyRules(dependency)
    # A graph-metric trace measured with anything but its own graph
    # space silently produces wrong coupled/blocked sets (node ids are
    # not coordinates) — refuse instead of degrading.
    if getattr(meta, "metric", "euclidean") == "graph" \
            and rules.config.metric != "graph":
        raise ScenarioError(
            f"trace records metric='graph' but scenario {name!r} "
            f"resolved to {rules.config.metric!r} rules; a graph trace "
            f"can only replay under its own scenario's GraphSpace")
    return rules


class DependencyRules:
    """Parameterized coupled/blocked predicates over a distance space."""

    def __init__(self, config: DependencyConfig | None = None,
                 space: Space | None = None) -> None:
        self.config = config or DependencyConfig()
        self.space = space or space_for(self.config.metric)
        self.radius_p = self.config.radius_p
        self.max_vel = self.config.max_vel

    # -- thresholds -----------------------------------------------------

    @property
    def couple_threshold(self) -> float:
        """Same-step coupling distance: ``radius_p + max_vel``."""
        return self.radius_p + self.max_vel

    def block_threshold(self, step_gap: int) -> float:
        """Blocking distance for a leader ``step_gap`` steps ahead."""
        return (step_gap + 1) * self.max_vel + self.radius_p

    def validity_threshold(self, step_gap: int) -> float:
        """The §3.2 condition's distance bound for ``|ΔStep| = step_gap``."""
        return self.radius_p + (step_gap - 1) * self.max_vel

    # -- predicates -------------------------------------------------------

    def coupled(self, pos_a: Position, pos_b: Position) -> bool:
        """Must two same-step agents advance together?"""
        return self.space.dist(pos_a, pos_b) <= self.couple_threshold

    def blocked(self, pos_a: Position, step_a: int,
                pos_b: Position, step_b: int) -> bool:
        """Is A (about to run ``step_a``) blocked by B (still at ``step_b``)?

        Only agents at strictly smaller steps can block; the same-step
        case is coupling, and future agents never block (Appendix A).
        """
        if step_b >= step_a:
            return False
        gap = step_a - step_b
        return self.space.dist(pos_a, pos_b) <= self.block_threshold(gap)

    # -- runtime validation ------------------------------------------------

    def validate_state(self, states: Iterable[tuple[int, int, Position]]
                       ) -> None:
        """Assert the §3.2 validity condition over a full state snapshot.

        ``states`` yields ``(agent_id, step, position)``. O(n^2) — used by
        tests and the ``validate_causality`` debug mode, not production.
        """
        snapshot = list(states)
        for i, (aid_a, step_a, pos_a) in enumerate(snapshot):
            for aid_b, step_b, pos_b in snapshot[i + 1:]:
                if step_a == step_b:
                    continue
                gap = abs(step_a - step_b)
                distance = self.space.dist(pos_a, pos_b)
                threshold = self.validity_threshold(gap)
                if distance <= threshold:
                    raise CausalityViolation(
                        aid_a, step_a, aid_b, step_b, distance, threshold)
