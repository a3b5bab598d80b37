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
    awake: bool = False
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

    @property
    def agent_id(self) -> int:
        return self.persona.agent_id

    @property
    def busy_chatting(self) -> bool:
        return self.conversation is not None
