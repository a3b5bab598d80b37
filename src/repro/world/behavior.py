"""The perceive / retrieve / plan behavior loop (Algorithm 2 substitute).

This module decides, for every agent at every step, (a) how the agent
moves and interacts and (b) which LLM calls it issues, with what prompt
and output token counts. Decision *content* comes from counter-based RNG
keyed by ``(seed, agent, step)`` — never from execution order — so the
world evolves identically under any causally-correct scheduler. Token
counts are calibrated against the paper's trace statistics (§4.1): about
56.7k calls per 25-agent day, mean prompt 642.6 tokens, mean output 21.9
tokens, a 12-1pm busy hour of ≈5k calls and a 6-7am quiet hour of ≈800.

Step-start contract
-------------------
Perception reads every other agent as it stood when the step began,
never as another cluster has left it: §3.2's rule that an agent never
perceives another at a different simulation time. A cluster call
snapshots its members' positions before phase 1 (a lock-step call finds
them in the cell index), and a stepped agent's activity is kept aside
when the step first changes it; anything else an observer reads has not
changed during the call, so its live state is its step-start state. An
observer tests that state against its own post-move position.

:meth:`BehaviorModel.step_agents` may be called with any subset of agents
that is closed under the coupling relation (same step, distance <=
``radius_p + max_vel``), and perceives only its members. That is exact: a
non-member was more than ``radius_p + max_vel`` away at the step's start,
so it is more than ``radius_p`` (>= :attr:`BehaviorModel.PERCEPTION_RADIUS`)
from wherever the observer ends after moving at most ``max_vel``; the
blocking rule gives the same bound for agents at other steps. Conversation
pairing (radius 2) reads members after phase 1, inside the same bound.
So any order of coupling-closed clusters, on any number of threads,
leaves the world :meth:`BehaviorModel.step_all` leaves — the property the
OOO scheduler relies on, and which ``tests/test_perception.py`` checks by
running clusters in reverse and in random order.

:meth:`BehaviorModel.step_all` finds an observer's candidates in a cell
index over the agents' committed positions (cells as wide as the
perception radius; the 3x3 block around the observer holds everyone in
range), so one observation costs O(neighbours), not O(agents).

A step visits only the members that are *up* — awake, in a conversation,
or at their wake step — because a sleeper's step reads and writes nothing;
the model keeps the first two on its roster (:class:`BehaviorModel`), so a
lock-step call never steps an agent that is down. Phase 2 pairs only
members that are awake and free after phase 1.
A *dwelling* step — awake, settled, before ``dwell_until``, inside its
routine block, no reflection due — decides nothing either: it would draw
no number and write no field, so it returns before its stream is keyed.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .._util import FastRng, fast_rng_for, rng_for
from ..config import STEPS_PER_DAY
from ..errors import WorldError
from .agent import AgentState
from .conversation import ConvState
from .grid import GridWorld
from .memory_stream import MemoryEvent
from .pathfind import PathPlanner
from .persona import SOCIAL_VENUES, Persona

#: Function labels recorded in traces (the Figure-1 color legend).
FUNCS = (
    "daily_plan", "wake_routine", "action_decide", "action_decompose",
    "pick_location", "observe_react", "utterance", "convo_summary",
    "reflect_insight", "reflect_memo",
)
FUNC_INDEX = {name: i for i, name in enumerate(FUNCS)}

#: Offsets of the 3x3 block of index cells around an observer's cell.
_BLOCK = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))

#: Hard cap on prompt length (the original agents truncate context too).
MAX_INPUT_TOKENS = 1600


@dataclass(frozen=True)
class LLMCall:
    """One LLM invocation an agent makes within a step."""

    func: str
    input_tokens: int
    output_tokens: int


class _StepStart(NamedTuple):
    """What one call's perception reads (see the module docstring)."""

    #: ``aid -> activity`` at the step's start of each agent whose
    #: activity the call changed (:meth:`BehaviorModel._set_activity`).
    before: dict[int, str]
    #: ``(aid, pos, None)`` of a cluster call's members before phase 1
    #: (the shape of an index entry, without its cell): its candidates.
    #: None for a lock-step call, whose candidates come from the cell
    #: index at their committed (step-start) positions.
    members: list[tuple[int, tuple[int, int], None]] | None


class BehaviorModel:
    """Drives agents through a day and emits their LLM call chains.

    The *roster* (:attr:`roster`) is the set of ids of the agents that
    are up: awake or in a conversation. It is exact after every write.
    Anyone may write an agent's ``awake``, the model or an outside
    caller (a test, a deep copy's new owner): the property's setter
    updates the roster. Only the model writes ``conversation``, and it
    updates the roster where a conversation starts and ends. Agents
    waking at a step are not on it yet: they come from a table of wake
    steps built once here. A deep copy of the model copies the roster
    once and every agent's reference to it through the memo.

    The *cell index* (:attr:`_cells`) holds every agent's committed
    position, the one it had when the index last read it, under the
    agent's cell. Before a lock-step call reads it, :meth:`_reindex`
    brings it up to every ``pos`` written since, whoever wrote it (the
    model, a live worker, an outside caller), so within that call the
    index holds everyone's step-start position. Cluster calls never
    read it. Graph worlds index by node (a cell of side 1 is the
    position itself).
    """

    #: Agents within this distance may strike up a conversation.
    CHAT_RADIUS = 2.0
    #: Perception radius (GenAgent: 4 tiles) — cross-agent reads only
    #: happen inside this radius; must stay <= coupling threshold.
    PERCEPTION_RADIUS = 4.0

    def __init__(self, world: GridWorld, personas: Sequence[Persona],
                 seed: int, planner: PathPlanner | None = None,
                 social_venues: Sequence[str] | None = None,
                 func_shapes=None) -> None:
        self.world = world
        self.personas = list(personas)
        self.seed = seed
        self.planner = planner or PathPlanner(world)
        #: Per-function token shapes: scenario overrides (see
        #: ``Scenario.token_shapes``) are merged over the GenAgent
        #: defaults, so a world can declare its own prompt/output
        #: distributions without forking the behavior model.
        self._func_shape = dict(self._FUNC_SHAPE)
        if func_shapes:
            unknown = set(func_shapes) - set(self._FUNC_SHAPE)
            if unknown:
                raise WorldError(
                    f"func_shapes overrides unknown functions "
                    f"{sorted(unknown)}")
            self._func_shape.update(func_shapes)
        #: Venues where conversations spark easily. ``None`` keeps the
        #: SmallVille defaults; scenarios pass their own (see
        #: :mod:`repro.scenarios`).
        self.social_venues = tuple(
            SOCIAL_VENUES if social_venues is None else social_venues)
        self.agents: list[AgentState] = []
        #: Ids of the agents that are up (see the class docstring).
        self.roster: set[int] = set()
        #: Step-of-day -> ids of the agents waking then (read only).
        self._wakers: dict[int, set[int]] = {}
        #: Side of an index cell: at least the perception radius.
        self._side = max(1, math.ceil(self.PERCEPTION_RADIUS))
        #: Each agent's index entry ``[id, committed position, cell]``:
        #: the ``pos`` object the index last read and the cell it sits
        #: under; the same list object sits in that cell's list in
        #: :attr:`_cells`.
        self._entries: list[list] = []
        #: Cell -> the entries of the agents committed in it.
        self._cells: dict[tuple[int, int], list[list]] = {}
        for persona in self.personas:
            home = world.venue(persona.home)
            rng = rng_for(seed, "spawn", persona.agent_id)
            pos = world.random_walkable_tile(rng, home)
            agent = AgentState(persona=persona, pos=pos)
            agent._roster = self.roster
            self.agents.append(agent)
            entry = [persona.agent_id, pos, self._cell(pos)]
            self._entries.append(entry)
            self._cells.setdefault(entry[2], []).append(entry)
            self._wakers.setdefault(persona.wake_step, set()).add(
                persona.agent_id)
        #: The distinct wake steps, as steps of the day, in order.
        self._wake_steps = sorted({s % STEPS_PER_DAY for s in self._wakers})

    # ------------------------------------------------------------------
    # public stepping API
    # ------------------------------------------------------------------

    def step_all(self, step: int) -> dict[int, list[LLMCall]]:
        """Advance every agent one step (lock-step generation mode).

        Steps the roster and the step's wakers and returns their calls,
        a (possibly empty) list each, in id order. Anyone else was down:
        it made no call, did not move and is not in the result. Of the
        others it reads only each ``pos`` object, to keep the cell index
        current, and the agents near an observer: the whole population
        is requested, so nobody else can be stepping at the same
        time."""
        up_ids = self.roster.union(
            self._wakers.get(step % STEPS_PER_DAY, ()))
        if not up_ids:
            return {}
        self._reindex()
        ids = sorted(up_ids)
        up = list(map(self.agents.__getitem__, ids))
        calls = {aid: [] for aid in ids}
        self._step_up(step, up, calls, _StepStart({}, None))
        return calls

    def step_agents(self, step: int,
                    agent_ids: Iterable[int]) -> dict[int, list[LLMCall]]:
        """Advance a coupling-closed subset of agents one step; returns
        a (possibly empty) call list for every requested agent.

        Live workers step disjoint subsets on several threads at once,
        and a stepped agent's ``awake`` write adds or drops its id on
        the shared roster. So this tests each member with ``in`` and
        never iterates the set, which would raise on a concurrent
        change of its size. It reads no agent outside ``agent_ids`` and
        never the cell index (module docstring)."""
        members = sorted(agent_ids)
        calls: dict[int, list[LLMCall]] = {aid: [] for aid in members}
        agents = self.agents
        roster = self.roster
        wakers = self._wakers.get(step % STEPS_PER_DAY, ())
        up = [agents[aid] for aid in members
              if aid in roster or aid in wakers]
        if up:
            self._step_up(step, up, calls, _StepStart(
                {}, [(aid, agents[aid].pos, None) for aid in members]))
        return calls

    def _step_up(self, step: int, up: list[AgentState],
                 calls: dict[int, list[LLMCall]], view: _StepStart) -> None:
        """One step of the members that are up, in agent-id order."""
        # Phase 1: solo decisions + movement, in agent-id order.
        for agent in up:
            self._step_solo(step, agent.agent_id, calls[agent.agent_id],
                            view)
        # Phase 2: pairwise interactions (conversation starts) — symmetric,
        # keyed by the unordered pair so order cannot matter.
        self._maybe_start_conversations(step, up, calls)

    def next_active_step(self, step: int) -> int:
        """The first step >= ``step`` at which anyone is up (see
        :meth:`step_agents`); until then stepping changes nothing."""
        if self.roster:
            return step
        day_step = step % STEPS_PER_DAY
        wakes = self._wake_steps
        i = bisect_left(wakes, day_step)
        if i < len(wakes):
            return step + wakes[i] - day_step
        return step + wakes[0] + STEPS_PER_DAY - day_step

    # ------------------------------------------------------------------
    # solo behaviour
    # ------------------------------------------------------------------

    def _step_solo(self, step: int, aid: int, out: list[LLMCall],
                   view: _StepStart) -> None:
        agent = self.agents[aid]
        if agent.busy_chatting:
            self._conversation_turn(step, aid, out)
            return
        persona = agent.persona
        day_step = step % STEPS_PER_DAY
        # A dwelling step (module docstring): the rest would fall
        # through to the end without a draw or a write.
        if (agent.awake and agent.target_venue is None
                and step < agent.dwell_until
                and day_step < persona.sleep_step
                and persona.block_at(day_step).activity
                in (agent.activity, "sleeping")
                and not self._reflection_due(agent, step)):
            return
        rng = fast_rng_for(self.seed, "beh", aid, step)

        # Sleep/wake edges.
        if not agent.awake:
            if day_step == persona.wake_step:
                self._wake(step, agent, rng, out, view)
            return
        if day_step >= persona.sleep_step and not agent.busy_chatting:
            if agent.activity != "heading home":
                self._set_activity(agent, "heading home", view)
                agent.target_venue = persona.home
                agent.target_tile = None
            if self._arrived(agent):
                agent.awake = False
                self._set_activity(agent, "sleeping", view)
                agent.target_venue = None
                return

        # Follow the schedule: retarget when the routine block changes.
        block = persona.block_at(day_step)
        if block.activity != "sleeping" and agent.activity != block.activity:
            self._set_activity(agent, block.activity, view)
            if block.venue != self._current_venue_name(agent):
                agent.target_venue = block.venue
                agent.target_tile = None
                if rng.random() < 0.5:
                    out.append(self._call(rng, "pick_location", agent, step))

        # Walk toward the target, or act in place.
        if agent.target_venue is not None and not self._arrived(agent):
            self._move_toward_target(agent, rng)
            if rng.random() < 0.12:
                out.append(self._call(rng, "observe_react", agent, step))
                self._observe_surroundings(step, aid, view)
        else:
            agent.target_venue = None
            self._act_in_place(step, agent, rng, out, view)

        if self._reflection_due(agent, step):
            out.append(self._call(rng, "reflect_insight", agent, step))
            for _ in range(int(rng.integers(2, 5))):
                out.append(self._call(rng, "reflect_memo", agent, step))
            agent.memory.reset_reflection_counter()
            agent.last_reflection = step
            agent.memory.add(MemoryEvent(
                step=step, kind="reflection",
                keywords=frozenset({"reflection", persona.archetype}),
                importance=0.4, tokens=44))

    @staticmethod
    def _reflection_due(agent: AgentState, step: int) -> bool:
        """Enough importance accumulated since the last one (GenAgent)."""
        return (agent.memory.importance_since_reflection > 12.0
                and step - agent.last_reflection > 180)

    @staticmethod
    def _set_activity(agent: AgentState, activity: str,
                      view: _StepStart) -> None:
        """Change the activity, keeping the one the agent started the
        step with on ``view`` for observers later in the step."""
        view.before.setdefault(agent.agent_id, agent.activity)
        agent.activity = activity

    def _wake(self, step: int, agent: AgentState, rng: FastRng,
              out: list[LLMCall], view: _StepStart) -> None:
        agent.awake = True
        self._set_activity(agent, "morning routine", view)
        out.append(self._call(rng, "daily_plan", agent, step))
        for _ in range(int(rng.integers(3, 7))):
            out.append(self._call(rng, "wake_routine", agent, step))
        agent.memory.add(MemoryEvent(
            step=step, kind="plan",
            keywords=frozenset({"plan", agent.persona.archetype}),
            importance=0.5, tokens=60))

    def _act_in_place(self, step: int, agent: AgentState, rng: FastRng,
                      out: list[LLMCall], view: _StepStart) -> None:
        if step < agent.dwell_until:
            return
        out.append(self._call(rng, "action_decide", agent, step))
        # Heavy-tailed decomposition chains: most decisions are quick, a
        # few expand into long sequential planning chains (the §2.2
        # imbalance that throttles lock-step parallelism).
        extra = int(rng.random() ** 2.5 * 8)
        for _ in range(extra):
            out.append(self._call(rng, "action_decompose", agent, step))
        # Re-decision cadence depends on how absorbing the activity is:
        # quiet-hour morning routines are slow, social blocks are lively.
        lo, hi = self._DWELL.get(agent.activity, (4, 12))
        agent.dwell_until = step + int(rng.integers(lo, hi))
        self._observe_surroundings(step, agent.agent_id, view)
        # Small chance of wandering within the venue.
        if rng.random() < 0.3:
            venue = self.world.venue_at(*agent.pos)
            if venue is not None:
                agent.target_tile = self.world.random_walkable_tile(rng, venue)
                agent.target_venue = venue.name

    # ------------------------------------------------------------------
    # movement
    # ------------------------------------------------------------------

    def _current_venue_name(self, agent: AgentState) -> str | None:
        venue = self.world.venue_at(*agent.pos)
        return venue.name if venue is not None else None

    def _arrived(self, agent: AgentState) -> bool:
        if agent.target_venue is None:
            return True
        venue = self.world.venue(agent.target_venue)
        if agent.target_tile is not None:
            return agent.pos == agent.target_tile
        return venue.contains(*agent.pos)

    def _move_toward_target(self, agent: AgentState, rng: FastRng) -> None:
        """One movement step.

        Outside the target venue, agents follow the shortest path to the
        venue center — centers are shared goals, so the planner's BFS
        distance fields are computed once per venue, not once per walk.
        Inside (venue interiors are open rectangles), they walk
        axis-greedily to their personal target tile.
        """
        venue = self.world.venue(agent.target_venue)
        if agent.target_tile is None or not venue.contains(*agent.target_tile):
            agent.target_tile = self.world.random_walkable_tile(rng, venue)
        if venue.contains(*agent.pos):
            x, y = agent.pos
            tx, ty = agent.target_tile
            if x != tx:
                agent.pos = (x + (1 if tx > x else -1), y)
            elif y != ty:
                agent.pos = (x, y + (1 if ty > y else -1))
        else:
            agent.pos = self.planner.next_step(agent.pos, venue.center)
        if agent.pos == agent.target_tile:
            agent.target_venue = None
            agent.target_tile = None

    # ------------------------------------------------------------------
    # perception & conversations
    # ------------------------------------------------------------------

    def _cell(self, pos: tuple[int, int]) -> tuple[int, int]:
        """The index cell of ``pos``: a square of side :attr:`_side`."""
        return (pos[0] // self._side, pos[1] // self._side)

    def _near(self, pos: tuple[int, int]) -> list[list]:
        """The index entries ``[id, committed position, cell]`` in the 3x3
        block of cells around ``pos``: a cell is at least
        :attr:`PERCEPTION_RADIUS` wide, so the block holds everyone in
        reach."""
        cells = self._cells
        cx, cy = self._cell(pos)
        return [entry for dx, dy in _BLOCK
                for entry in cells.get((cx + dx, cy + dy), ())]

    def _in_reach(self, pos: tuple[int, int], near: Iterable) -> list[int]:
        """The ids of the index entries (or ``(id, position, None)``
        members) in ``near`` within :attr:`PERCEPTION_RADIUS` of
        ``pos``."""
        x, y = pos
        reach = self.PERCEPTION_RADIUS ** 2
        return [cid for cid, (ox, oy), _ in near
                if (dx := ox - x) * dx + (dy := oy - y) * dy <= reach]

    def _reindex(self) -> None:
        """Bring the index up to every ``pos`` written since the last
        call: a write replaces the tuple, so one identity test per agent
        finds them all. An entry moves only when its cell changed; it
        carries its cell, so only the new one is derived."""
        agents, cells, side = self.agents, self._cells, self._side
        for entry in [entry for agent, entry in zip(agents, self._entries)
                      if agent.pos is not entry[1]]:
            pos = entry[1] = agents[entry[0]].pos
            # ``_cell``, inlined: this runs for every move.
            cell = (pos[0] // side, pos[1] // side)
            if cell != entry[2]:
                cells[entry[2]].remove(entry)
                cells.setdefault(cell, []).append(entry)
                entry[2] = cell

    def _perceived(self, aid: int, view: _StepStart
                   ) -> list[tuple[int, str]]:
        """``(id, activity)`` of every other agent whose step-start
        position is within reach of agent ``aid``'s position, in id
        order. A cluster call's candidates are its members; a lock-step
        call's are the agents in the index cells around the observer.
        An agent kept in ``view.before`` has that activity, anyone else
        its live one, which is its step-start one."""
        pos = self.agents[aid].pos
        before, near = view
        if near is None:
            near = self._near(pos)
        agents = self.agents
        return [(cid, before[cid] if cid in before else agents[cid].activity)
                for cid in sorted(self._in_reach(pos, near)) if cid != aid]

    def _chat_pairs(self, free: list[AgentState]
                    ) -> list[tuple[AgentState, AgentState]]:
        """The pairs of ``free``, in ``(i, j)`` order, close enough to
        strike up a conversation: the world's distance predicate at
        :attr:`CHAT_RADIUS` (graph worlds override it with hop distance).
        Must stay within the coupling threshold so conversation pairing
        remains cluster-safe."""
        reach = self.CHAT_RADIUS ** 2
        # Sweep along x: a partner lies within CHAT_RADIUS columns, so
        # each agent is tested against its x-neighbours only; sorting
        # the index pairs restores the all-pairs ``(i, j)`` order.
        spots = sorted((*agent.pos, i) for i, agent in enumerate(free))
        pairs = []
        for k, (ax, ay, i) in enumerate(spots):
            limit = ax + self.CHAT_RADIUS
            for bx, by, j in spots[k + 1:]:
                if bx > limit:
                    break
                if (dx := ax - bx) * dx + (dy := ay - by) * dy <= reach:
                    pairs.append((i, j) if i < j else (j, i))
        pairs.sort()
        return [(free[i], free[j]) for i, j in pairs]

    def _observe_surroundings(self, step: int, aid: int,
                              view: _StepStart) -> None:
        """Write memory events about perceivable agents (radius <= 4), as
        they stood at the step's start."""
        agent, agents = self.agents[aid], self.agents
        for other_id, activity in self._perceived(aid, view):
            agent.memory.add(MemoryEvent(
                step=step, kind="observation",
                keywords=frozenset({agents[other_id].persona.name,
                                    activity}),
                importance=0.15, tokens=36))

    def _maybe_start_conversations(self, step: int, up: list[AgentState],
                                   calls: dict[int, list[LLMCall]]) -> None:
        # Positions and ``awake`` hold still in this phase; only
        # ``conversation`` changes, so it is re-checked pair by pair.
        free = [agent for agent in up
                if agent.awake and agent.conversation is None]
        if len(free) < 2:
            return
        for a, b in self._chat_pairs(free):
            if a.conversation is not None or b.conversation is not None:
                continue
            aid, bid = a.agent_id, b.agent_id  # aid < bid: id order
            rng = fast_rng_for(self.seed, "chat", aid, bid, step)
            social = (self._current_venue_name(a) in self.social_venues)
            base = 0.115 if (social and a.activity == "lunch") else \
                0.04 if social else 0.008
            prob = base * a.persona.sociability * b.persona.sociability
            if rng.random() >= prob:
                continue
            self._generate_conversation(step, aid, bid, rng, calls)

    def _generate_conversation(self, step: int, aid: int, bid: int,
                               rng: FastRng,
                               calls: dict[int, list[LLMCall]]) -> None:
        """Generate the full dialogue as one chain on the initiator's side.

        Matches GenAgent: the meeting step carries the whole utterance
        chain (the busy-hour straggler), the partner contributes only a
        summary call, and both stay engaged — frozen, no further calls —
        for the conversation's simulated duration.
        """
        a, b = self.agents[aid], self.agents[bid]
        turns = int(rng.integers(8, 26))
        history = 0
        for turn in range(turns):
            speaker = a if turn % 2 == 0 else b
            utterance = int(rng.integers(28, 72))
            prompt = self._prompt_tokens(
                speaker, step, base=425 + history, top_k=4)
            calls[aid].append(LLMCall("utterance", prompt, utterance))
            history += utterance
        for agent_obj, agent_calls in ((a, calls[aid]), (b, calls[bid])):
            agent_calls.append(self._call(rng, "convo_summary", agent_obj,
                                          step))
        freeze = turns + int(rng.integers(2, 8))
        a.conversation, b.conversation = bid, aid
        self.roster.update((aid, bid))
        a.conv_state = ConvState(partner=bid, freeze_left=freeze)
        b.conv_state = ConvState(partner=aid, freeze_left=freeze)
        # Freeze both in place for the conversation's duration.
        a.target_venue = a.target_tile = None
        b.target_venue = b.target_tile = None
        for agent_obj, partner in ((a, b), (b, a)):
            agent_obj.memory.add(MemoryEvent(
                step=step, kind="chat",
                keywords=frozenset({partner.persona.name, "conversation"}),
                importance=0.6, tokens=58))

    def _conversation_turn(self, step: int, aid: int,
                           out: list[LLMCall]) -> None:
        """One frozen step of an ongoing conversation, from ``aid``'s side.

        The dialogue's LLM calls were all issued at the meeting step; the
        engaged steps just hold both partners in place (both tick their
        own mirrored countdown — same step, same cluster).
        """
        agent = self.agents[aid]
        conv: ConvState = agent.conv_state
        rng = fast_rng_for(self.seed, "turn", min(aid, conv.partner),
                           max(aid, conv.partner), step, aid)
        if rng.random() < 0.04:
            out.append(self._call(rng, "observe_react", agent, step))
        if conv.tick():
            agent.conversation = None
            agent.conv_state = None
            if not agent.awake:  # put to sleep from outside mid-chat
                self.roster.discard(aid)
            agent.dwell_until = step + int(rng.integers(2, 6))

    # ------------------------------------------------------------------
    # token model
    # ------------------------------------------------------------------

    #: activity -> (dwell lo, dwell hi) steps between action decisions.
    #: Unlisted activities fall back to (4, 12). The non-SmallVille
    #: entries back the metro-grid / market-town scenario schedules.
    _DWELL = {
        "morning routine": (9, 20),
        "working": (3, 9),
        "lunch": (2, 7),
        "socializing": (3, 9),
        "dinner": (5, 13),
        "commuting": (2, 6),
        "trading": (3, 8),
        "selling": (3, 8),
        "delivering": (6, 14),
    }

    #: func -> (base prompt tokens, retrieval top_k, output lo, output hi)
    _FUNC_SHAPE = {
        "daily_plan": (500, 8, 180, 380),
        "wake_routine": (400, 4, 6, 18),
        "action_decide": (375, 8, 6, 16),
        "action_decompose": (345, 4, 12, 30),
        "pick_location": (460, 6, 4, 9),
        "observe_react": (385, 4, 4, 12),
        "convo_summary": (470, 6, 45, 90),
        "reflect_insight": (640, 10, 55, 100),
        "reflect_memo": (700, 6, 25, 50),
    }

    def _prompt_tokens(self, agent: AgentState, step: int, base: int,
                       top_k: int) -> int:
        retrieved = agent.memory.retrieved_tokens(
            step, frozenset({agent.activity}), top_k=top_k)
        return min(base + retrieved, MAX_INPUT_TOKENS)

    def _call(self, rng: FastRng, func: str, agent: AgentState,
              step: int) -> LLMCall:
        try:
            base, top_k, out_lo, out_hi = self._func_shape[func]
        except KeyError:
            raise WorldError(f"unknown function {func!r}") from None
        jitter = int(rng.integers(-40, 120))
        prompt = self._prompt_tokens(agent, step, base + jitter, top_k)
        output = int(rng.integers(out_lo, out_hi + 1))
        return LLMCall(func, max(prompt, 16), output)
