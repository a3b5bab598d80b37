"""Mutable per-agent simulation state."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .conversation import ConvState
from .memory_stream import MemoryStream
from .persona import Persona


@dataclass
class AgentState:
    """Everything that changes about an agent as the world advances."""

    persona: Persona
    pos: tuple[int, int]
    #: Venue name the agent is currently headed to (None when settled).
    target_venue: Optional[str] = None
    #: Tile within the target venue the agent walks toward.
    target_tile: Optional[tuple[int, int]] = None
    #: Read and written through :attr:`awake`, which keeps the roster.
    _awake: bool = field(default=False, repr=False)
    #: Activity label from the persona schedule (for the timeline legend).
    activity: str = "sleeping"
    #: Partner agent id when engaged in a conversation, else None.
    conversation: Optional[int] = None
    #: This agent's half of the conversation state.
    conv_state: Optional[ConvState] = None
    memory: MemoryStream = field(default_factory=MemoryStream)
    #: Steps until the agent re-decides what to do at its current venue.
    dwell_until: int = 0
    #: Absolute step (not step-of-day) of the last reflection chain.
    last_reflection: int = 0
    #: The owning model's roster (``BehaviorModel.roster``), the ids of
    #: the agents that are up; None for an agent outside a model.
    _roster: Optional[set[int]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def agent_id(self) -> int:
        return self.persona.agent_id

    @property
    def awake(self) -> bool:
        return self._awake

    @awake.setter
    def awake(self, value: bool) -> None:
        """Every write, the model's or an outside one, keeps the roster
        exact: the agent is on it while awake or in a conversation."""
        self._awake = value
        roster = self._roster
        if roster is not None:
            if value or self.conversation is not None:
                roster.add(self.persona.agent_id)
            else:
                roster.discard(self.persona.agent_id)

    @property
    def busy_chatting(self) -> bool:
        return self.conversation is not None
