"""World-program protocol and the SmallVille world program.

A *world program* is the developer-defined side of the paper's
architecture: given a step and a coupling-closed set of agents, it runs
their ``proceed`` logic (issuing LLM calls through the engine's client)
and applies their writes at commit. The engine guarantees the set it
passes is closed under the §3.2 coupling relation and causally safe to
run — the world program never needs locks of its own.

:class:`BehaviorProgram` adapts the full :class:`repro.world` simulation;
:class:`repro.live.LiveSimulation` runs any world program.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from ..core.space import Position
from ..world.behavior import BehaviorModel
from .clients import LLMClient


class WorldProgram(Protocol):
    """Developer-defined world + agents, executed cluster-by-cluster.

    Programs may additionally provide a ``positions(aids) -> dict``
    batch hook: the engine prefers it for its one-read-per-commit (and
    one-read-at-startup) bulk position fetches, falling back to
    per-agent :meth:`position` calls when absent. Worlds whose position
    reads are expensive (remote state, derived coordinates) should
    implement it.
    """

    @property
    def n_agents(self) -> int: ...

    def position(self, aid: int) -> Position:
        """Agent's current position (read by the dependency tracker)."""
        ...

    def execute(self, step: int, agent_ids: Sequence[int],
                client: LLMClient) -> None:
        """Run one step for a coupling-closed set of agents.

        Called from a worker thread; may issue blocking LLM calls.
        Delivery is *at-least-once*: after a mid-cluster failure (an LLM
        call raising) the engine aborts the cluster and re-executes it,
        possibly re-clustered, so programs must make the world mutation
        idempotent per ``(step, agent)`` — see :class:`BehaviorProgram`
        for the memo pattern.
        """
        ...


class BehaviorProgram:
    """Adapts :class:`BehaviorModel` (the SmallVille world) to live runs."""

    def __init__(self, model: BehaviorModel) -> None:
        self.model = model
        #: Crash-consistent redispatch memo: ``aid -> (step, calls)`` of
        #: the last world step applied for the agent. ``execute`` is
        #: delivered at-least-once (a failed cluster is aborted and
        #: re-run), but ``step_agents`` mutates the world *before* the
        #: LLM calls are issued — so re-delivery must replay the cached
        #: calls without stepping again, or agents double-step and the
        #: state diverges from lock-step. Disjoint clusters touch
        #: disjoint keys (the engine never runs an agent twice
        #: concurrently), so plain dict ops are safe across workers.
        self._applied: dict[int, tuple[int, list]] = {}

    @property
    def n_agents(self) -> int:
        return len(self.model.agents)

    def position(self, aid: int) -> Position:
        return self.model.agents[aid].pos

    def positions(self, aids: Sequence[int]) -> dict[int, Position]:
        """Batch position read (one pass; the engine calls this once per
        cluster commit instead of one :meth:`position` per member)."""
        agents = self.model.agents
        return {aid: agents[aid].pos for aid in aids}

    def execute(self, step: int, agent_ids: Sequence[int],
                client: LLMClient) -> None:
        fresh = []
        calls: dict[int, list] = {}
        for aid in agent_ids:
            applied = self._applied.get(aid)
            if applied is not None and applied[0] == step:
                calls[aid] = applied[1]  # redispatch: replay, don't re-step
            else:
                fresh.append(aid)
        if fresh:
            stepped = self.model.step_agents(step, fresh)
            for aid in fresh:
                agent_calls = stepped.get(aid, [])
                self._applied[aid] = (step, agent_calls)
                calls[aid] = agent_calls
        for aid in sorted(calls):
            for call in calls[aid]:
                client.complete(
                    prompt=f"[{call.func}] agent {aid} step {step} "
                           f"({call.input_tokens} tokens)",
                    max_tokens=call.output_tokens,
                    priority=float(step))


def program_for_scenario(scenario: str, n_agents: int,
                         seed: int = 0) -> "BehaviorProgram":
    """A ready-to-run world program for any registered scenario.

    Example::

        program = program_for_scenario("metro-grid", n_agents=10)
        result = LiveSimulation(program, EchoLLMClient()).run(target_step=50)
    """
    from ..scenarios import get_scenario
    return BehaviorProgram(get_scenario(scenario).model(n_agents, seed))
