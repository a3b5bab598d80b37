"""Columnar trace representation.

Positions and LLM calls are stored as dense numpy arrays so that thousand-
agent traces stay compact and slicing an hour window (the paper's busy/
quiet-hour benchmarks) is a cheap array operation. Positions are held
**step-major** — one ``(n_steps + 1, n_agents, 2)`` int array, the
only layout — so the replay drivers read a commit batch's movers off
its flat rows (a lazily built ``moved`` mask says who they are), a
step's population slice is contiguous (bulk spatial-index loads, the
oracle's per-step clustering), and graph-metric traces expose their
node-id column without re-tupling. Calls are sorted by ``(agent,
step)``, and their one index is each call's row key ``agent * n_steps
+ step`` (8 bytes per call, nothing per agent-step): a binary search
over the keys finds an agent's ordered call chain for a step, which is
what the scheduler drivers consume.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Sequence

import numpy as np

from ..errors import TraceError
from ..world.behavior import FUNCS

@dataclass(frozen=True)
class TraceMeta:
    """Descriptive metadata carried alongside the arrays."""

    n_agents: int
    n_steps: int
    seed: int
    width: int
    height: int
    radius_p: float = 4.0
    max_vel: float = 1.0
    #: Distance metric of the generating scenario (see
    #: ``DependencyConfig.metric``). ``graph`` means positions are
    #: ``(node_id, 0)`` pairs measured in hop distance, so coordinate-
    #: based checks (the movement speed limit) do not apply.
    metric: str = "euclidean"
    #: Absolute step-of-day at which this trace window begins.
    base_step: int = 0
    #: Number of concatenated map segments (1 = the original map).
    segments: int = 1
    #: Registered scenario this trace was generated from.
    scenario: str = "smallville"


class Trace:
    """One simulation's positions and LLM calls.

    Attributes
    ----------
    positions_by_step:
        ``int[n_steps + 1, n_agents, 2]`` — the canonical step-major
        store: tile at the *start* of each step;
        ``positions_by_step[s + 1, a]`` is where agent ``a`` ended step
        ``s``. Per-step displacement never exceeds ``meta.max_vel``.
        The constructor takes positions in this layout.
    call_step / call_agent / call_func / call_in / call_out:
        Parallel arrays of the call events, sorted by ``(agent, step)``
        with chain order preserved. ``call_func`` indexes
        :data:`repro.world.behavior.FUNCS`.
    call_row:
        ``int64[n_calls]``, each call's row key ``agent * n_steps +
        step`` — non-decreasing, so an agent-step's chain is the run of
        calls with its key, found by binary search. The trace's only
        call index: it costs 8 bytes per call, and nothing is kept per
        agent-step.
    """

    def __init__(self, meta: TraceMeta, positions: np.ndarray,
                 call_step: np.ndarray, call_agent: np.ndarray,
                 call_func: np.ndarray, call_in: np.ndarray,
                 call_out: np.ndarray) -> None:
        self.meta = meta
        positions = np.asarray(positions)
        if positions.shape != (meta.n_steps + 1, meta.n_agents, 2):
            raise TraceError(
                f"positions shape {positions.shape} != "
                f"{(meta.n_steps + 1, meta.n_agents, 2)} "
                f"(steps + 1, agents, 2)")
        self._pos_sa = np.ascontiguousarray(positions)
        self._pos_flat: np.ndarray | None = None
        self._moved: bytes | None = None
        self._calling: bytes | None = None
        n = len(call_step)
        for name, arr in (("call_agent", call_agent),
                          ("call_func", call_func), ("call_in", call_in),
                          ("call_out", call_out)):
            if len(arr) != n:
                raise TraceError(f"{name} length {len(arr)} != {n}")
        # Sort by row key, chain order kept (a stable sort): a chain is
        # the run of calls with its agent-step's key.
        row = np.asarray(call_agent, dtype=np.int64) * meta.n_steps \
            + call_step
        order = np.argsort(row, kind="stable")
        self.call_row = row[order]
        self.call_step = np.ascontiguousarray(call_step[order])
        self.call_agent = np.ascontiguousarray(call_agent[order])
        self.call_func = np.ascontiguousarray(call_func[order])
        self.call_in = np.ascontiguousarray(call_in[order])
        self.call_out = np.ascontiguousarray(call_out[order])
        self._validate()

    # -- construction helpers ------------------------------------------

    def _validate(self) -> None:
        meta = self.meta
        if len(self.call_step) and (
                self.call_step.min() < 0
                or self.call_step.max() >= meta.n_steps):
            raise TraceError("call step out of range")
        if len(self.call_agent) and (
                self.call_agent.min() < 0
                or self.call_agent.max() >= meta.n_agents):
            raise TraceError("call agent out of range")
        if len(self.call_out) and self.call_out.min() < 1:
            raise TraceError("output token counts must be >= 1")
        # Movement speed limit (the dependency rules assume it). Graph
        # metrics carry node ids, not coordinates, so the coordinate
        # check does not apply — untrusted entry points (load_trace /
        # import_jsonl) run :meth:`validate_movement` with the
        # scenario's space instead; in-process generation is covered by
        # the scenario test suite.
        if meta.metric == "graph":
            return
        # Chunked over steps: the naive full-trace int32 copy + diff
        # peaks at ~3x the position store — prohibitive at million-agent
        # scale, and the check is a pure reduction anyway.
        pos = self._pos_sa
        n_rows = pos.shape[0]
        chunk = max(2, 4_000_000 // max(1, pos.shape[1]))
        for s0 in range(0, n_rows - 1, chunk - 1):
            s1 = min(n_rows, s0 + chunk)
            deltas = np.diff(pos[s0:s1].astype(np.int32), axis=0)
            speed = np.abs(deltas).sum(axis=2)  # Manhattan per step
            if speed.size and speed.max() > meta.max_vel:
                raise TraceError(
                    f"an agent moved {speed.max()} tiles in one step "
                    f"(max_vel={meta.max_vel})")

    def validate_movement(self) -> None:
        """Check the per-step speed bound in the trace's *own* metric.

        For graph traces this measures hop distance through the
        scenario's space (resolved via ``rules_for``); coordinate
        traces already validated at construction. Costs one distance
        lookup per agent-step that changes node (:attr:`moved`; one
        that stays put is 0 hops), so it runs at the untrusted
        boundaries (trace load/import), not on every window slice.
        """
        if self.meta.metric != "graph":
            return
        from ..core.rules import rules_for  # lazy: avoid import cycle
        space = rules_for(None, self.meta).space
        max_vel = self.meta.max_vel
        n = self.meta.n_agents
        movers = np.flatnonzero(np.frombuffer(self.moved, dtype=np.uint8))
        for i in movers.tolist():
            step, aid = divmod(i, n)
            d = space.dist(self.pos(aid, step), self.pos(aid, step + 1))
            if d > max_vel:
                raise TraceError(
                    f"agent {aid} moved {d} hops at step {step} "
                    f"(max_vel={max_vel})")

    # -- accessors ----------------------------------------------------------

    @property
    def positions_by_step(self) -> np.ndarray:
        """The canonical step-major ``int[n_steps + 1, n_agents, 2]``."""
        return self._pos_sa

    @property
    def positions_flat(self) -> np.ndarray:
        """``int[(n_steps + 1) * n_agents, 2]`` row view of the store.

        Row ``step * n_agents + agent`` is that agent's tile at the
        start of ``step`` — the replay driver's commit gather (movers
        only, see :attr:`moved`) indexes this one shared array.
        """
        flat = self._pos_flat
        if flat is None:
            self._pos_flat = flat = self._pos_sa.reshape(-1, 2)
        return flat

    @property
    def moved(self) -> bytes:
        """One byte per agent-step: did the agent change tile over it?

        ``moved[step * n_agents + agent]`` is non-zero iff
        ``positions_by_step[step + 1, agent] !=
        positions_by_step[step, agent]``. Most agent-steps of every
        scenario stay put, so the replay driver reads this mask and
        gathers a next position only for the movers. Built by one
        vectorised compare at first use; ``bytes`` because the driver
        indexes it one member at a time.
        """
        moved = self._moved
        if moved is None:
            pos = self._pos_sa
            self._moved = moved = \
                (pos[1:] != pos[:-1]).any(axis=2).tobytes()
        return moved

    @property
    def calling(self) -> bytes:
        """One byte per agent-step: does the agent's chain hold a call?

        ``calling[step * n_agents + agent]`` is non-zero iff the agent
        makes a call at ``step`` — the twin of :attr:`moved`, same
        layout, same laziness. Most dispatched clusters hold no call at
        all; the replay driver reads this mask and sends only the
        calling ones to the chain executor. Built by one scatter of the
        call columns into a ``uint8`` mask.
        """
        calling = self._calling
        if calling is None:
            n = self.meta.n_agents
            mask = np.zeros(self.meta.n_steps * n, dtype=np.uint8)
            mask[self.call_step.astype(np.int64) * n + self.call_agent] = 1
            self._calling = calling = mask.tobytes()
        return calling

    @property
    def n_calls(self) -> int:
        return len(self.call_step)

    def chain_slice(self, agent: int, step: int) -> slice:
        """Index range of agent's calls within ``step`` (chain order).

        Raises :class:`TraceError` naming the agent and the step when
        either lies outside the trace: a row key past an agent's own
        steps is another agent's.
        """
        n_agents, n_steps = self.meta.n_agents, self.meta.n_steps
        if not (0 <= agent < n_agents and 0 <= step < n_steps):
            raise TraceError(
                f"no chain for agent {agent} at step {step}: the trace "
                f"has agents [0, {n_agents}) and steps [0, {n_steps})")
        row = agent * n_steps + step
        keys = self.call_row
        return slice(int(keys.searchsorted(row)),
                     int(keys.searchsorted(row, "right")))

    def chain_bounds(self, agents: Sequence[int] | np.ndarray,
                     step: int | Sequence[int] | np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)`` of each agent's call chain at ``step``.

        A binary search over :attr:`call_row` for a whole cluster at one
        ``step``, or — the executor's per-dispatch-round lookup — a
        whole round's members with a per-member ``step`` vector aligned
        with ``agents`` (clusters of one round sit at different steps).
        ``call_func[starts[i]:ends[i]]`` (and ``call_in`` /
        ``call_out``) is member ``i``'s chain in order.

        Unchecked, as the executor's hot lookup: every agent must lie in
        ``[0, n_agents)`` and every step in ``[0, n_steps)``, or the
        bounds are another agent's chain (:meth:`chain_slice` checks).
        """
        rows = np.asarray(agents, dtype=np.int64) * self.meta.n_steps + step
        keys = self.call_row
        return keys.searchsorted(rows), keys.searchsorted(rows, "right")

    def chain_lengths(self) -> np.ndarray:
        """``int64[n_agents, n_steps]`` — number of calls per agent-step.

        Counted on demand from :attr:`call_row`; the trace keeps no
        per-agent-step index.
        """
        n_agents, n_steps = self.meta.n_agents, self.meta.n_steps
        return np.bincount(self.call_row, minlength=n_agents * n_steps
                           ).reshape(n_agents, n_steps)

    def pos(self, agent: int, step: int) -> tuple[int, int]:
        """Tile of ``agent`` at the start of ``step``."""
        x, y = self._pos_sa[step, agent]
        return int(x), int(y)

    def func_name(self, func_id: int) -> str:
        return FUNCS[func_id]

    def share_positions(self) -> np.ndarray:
        """The step-major store, as the multiprocess replay hands it on.

        Every worker task references this one array (forked workers
        read it in place). A hand-off, not a copy: it stays a method
        only because ``benchmarks/e2e/layers.py`` times it for the
        ``trace.share_positions_s`` row, which ROADMAP item 4's
        benchmark revision can drop, and this method with it.
        """
        return self._pos_sa

    # -- transformations --------------------------------------------------

    def window(self, start_step: int, end_step: int) -> "Trace":
        """Sub-trace covering ``[start_step, end_step)``, steps renumbered."""
        if not 0 <= start_step < end_step <= self.meta.n_steps:
            raise TraceError(
                f"bad window [{start_step}, {end_step}) of "
                f"{self.meta.n_steps} steps")
        mask = (self.call_step >= start_step) & (self.call_step < end_step)
        meta = dc_replace(self.meta, n_steps=end_step - start_step,
                          base_step=self.meta.base_step + start_step)
        return Trace(
            meta,
            self._pos_sa[start_step:end_step + 1].copy(),
            self.call_step[mask] - start_step,
            self.call_agent[mask],
            self.call_func[mask],
            self.call_in[mask],
            self.call_out[mask],
        )


def concat_traces(traces: Sequence[Trace], x_stride: int) -> Trace:
    """Place ``traces`` side-by-side in space (the §4.3 large ville).

    Segment ``k`` keeps its own agents and calls but its x coordinates are
    offset by ``k * x_stride``; agent ids are renumbered contiguously.
    Segments share the clock, so inter-segment distances are real — they
    are simply always too large for interaction, which is the point of the
    paper's concatenation methodology.
    """
    if not traces:
        raise TraceError("need at least one trace")
    first = traces[0].meta
    for t in traces:
        if t.meta.n_steps != first.n_steps:
            raise TraceError("all segments must cover the same steps")
        if t.meta.height != first.height:
            raise TraceError("all segments must share map height")
    # Stream segment-wise into one preallocated store: the old
    # per-segment int32 copies + concatenate peaked at 2-3x the final
    # array, the difference between a million-agent build fitting in
    # memory or not. Segments repeat from a small pool at scale, so the
    # per-segment work is a cheap widen-shift-store slice write.
    total_agents = sum(t.meta.n_agents for t in traces)
    out = np.zeros((first.n_steps + 1, total_agents, 2), np.int32)
    steps, agents, funcs, ins, outs = [], [], [], [], []
    agent_base = 0
    for k, t in enumerate(traces):
        n = t.meta.n_agents
        dst = out[:, agent_base:agent_base + n]
        np.copyto(dst, t.positions_by_step, casting="same_kind")
        dst[:, :, 0] += k * x_stride
        steps.append(t.call_step)
        agents.append(t.call_agent + agent_base)
        funcs.append(t.call_func)
        ins.append(t.call_in)
        outs.append(t.call_out)
        agent_base += n
    meta = dc_replace(
        first, n_agents=agent_base, segments=len(traces),
        width=(len(traces) - 1) * x_stride + first.width)
    return Trace(
        meta, out,
        np.concatenate(steps), np.concatenate(agents),
        np.concatenate(funcs), np.concatenate(ins), np.concatenate(outs))
