"""Synthetic GenAgent trace generation, parameterized by scenario.

Runs the :mod:`repro.world` simulation of any registered scenario (see
:mod:`repro.scenarios`) lock-step for a day (or any number of steps),
recording positions and LLM calls into a :class:`Trace`. Generation is
deterministic in ``(scenario, seed)``. Day traces are cached on disk
(npz) because the scaling benchmarks slice many windows out of the same
days; the cache key includes the scenario name. Set ``REPRO_TRACE_CACHE``
to relocate or ``=0`` to disable.
"""

from __future__ import annotations

import logging
import os
import tempfile
from pathlib import Path

import numpy as np

from .._util import blake2b
from ..config import STEPS_PER_DAY, DependencyConfig
from ..errors import TraceError
from ..scenarios import Scenario, get_scenario
from ..world.behavior import FUNC_INDEX
from .io import load_trace, save_trace
from .schema import Trace, TraceMeta, concat_traces

#: Bump to invalidate cached traces when generation logic changes.
GENERATOR_VERSION = 5

_log = logging.getLogger("repro.trace")


def trace_fingerprint(trace: Trace) -> str:
    """16 hex digits of BLAKE2b over the trace's arrays: the golden
    tests pin it, which is what lets ``GENERATOR_VERSION`` stay put.
    (The built-in BLAKE2b ``stable_seed`` uses: CPython's own SHA-256 is
    about three times slower, and ``hashlib`` would load OpenSSL.)"""
    digest = blake2b(digest_size=8)
    for arr in (trace.positions_by_step, trace.call_step, trace.call_agent,
                trace.call_func, trace.call_in, trace.call_out):
        digest.update(arr.tobytes())
    return digest.hexdigest()[:16]


def generate_trace(n_agents: int | None = None,
                   n_steps: int = STEPS_PER_DAY,
                   seed: int = 0,
                   scenario: str | Scenario = "smallville") -> Trace:
    """Simulate one segment of ``scenario`` and record its trace.

    ``n_agents`` defaults to the scenario's per-segment population (25
    for SmallVille, as in the paper's setup).
    """
    scn = get_scenario(scenario)
    if n_agents is None:
        n_agents = scn.agents_per_segment
    if n_agents < 1:
        raise TraceError("need at least one agent")
    if n_steps < 0:
        raise TraceError(f"n_steps must be >= 0, got {n_steps}")
    model = scn.model(n_agents, seed)
    world = model.world

    # Step-major from the start: generation appends one population row
    # per step, which is exactly the canonical trace layout.
    positions = np.zeros((n_steps + 1, n_agents, 2), dtype=np.int16)
    last = [agent.pos for agent in model.agents]
    positions[0] = last
    steps, agents, funcs, ins, outs = [], [], [], [], []
    step = 0
    while step < n_steps:
        active = min(model.next_active_step(step), n_steps)
        if active > step:  # everyone asleep: one broadcast to the wake-up
            positions[step + 1:active + 1] = positions[step]
            step = active
            continue
        row = positions[step + 1]
        row[:] = positions[step]
        # Only the agents stepped can have moved or called.
        for aid, chain in model.step_all(step).items():
            pos = model.agents[aid].pos
            if pos != last[aid]:
                row[aid] = last[aid] = pos
            for call in chain:
                steps.append(step)
                agents.append(aid)
                funcs.append(FUNC_INDEX[call.func])
                ins.append(call.input_tokens)
                outs.append(call.output_tokens)
        step += 1

    dep = scn.dependency_config or DependencyConfig()
    meta = TraceMeta(
        n_agents=n_agents, n_steps=n_steps, seed=seed,
        width=world.width, height=world.height, scenario=scn.name,
        radius_p=dep.radius_p, max_vel=dep.max_vel, metric=dep.metric)
    return Trace(
        meta, positions,
        np.asarray(steps, dtype=np.int32), np.asarray(agents, dtype=np.int32),
        np.asarray(funcs, dtype=np.int16), np.asarray(ins, dtype=np.int32),
        np.asarray(outs, dtype=np.int32))


def _cache_dir() -> Path | None:
    env = os.environ.get("REPRO_TRACE_CACHE", "")
    if env == "0":
        return None
    if env:
        path = Path(env)
    else:
        path = Path(tempfile.gettempdir()) / "repro-traces"
    path.mkdir(parents=True, exist_ok=True)
    return path


def cached_day_trace(seed: int, n_agents: int | None = None,
                     n_steps: int = STEPS_PER_DAY,
                     scenario: str | Scenario = "smallville") -> Trace:
    """A (possibly cached) full-day single-segment trace."""
    scn = get_scenario(scenario)
    if n_agents is None:
        n_agents = scn.agents_per_segment
    cache = _cache_dir()
    if cache is None:
        return generate_trace(n_agents, n_steps, seed, scn)
    path = cache / (f"v{GENERATOR_VERSION}-{scn.name}-seed{seed}"
                    f"-a{n_agents}-s{n_steps}.npz")
    if path.exists():
        try:
            return load_trace(path)
        except Exception as err:
            _log.warning("unreadable cached trace %s (%s: %s), regenerating",
                         path, type(err).__name__, err)
    trace = generate_trace(n_agents, n_steps, seed, scn)
    save_trace(trace, path)
    return trace


def generate_concatenated_trace(
        total_agents: int,
        n_steps: int = STEPS_PER_DAY,
        base_seed: int = 0,
        scenario: str | Scenario = "smallville") -> Trace:
    """The §4.3 large ville: independent map segments side-by-side.

    Each segment replays an independently-seeded day of the scenario's
    per-segment population; segments share the clock and the
    (concatenated) space, exactly as the paper scales from 25 to 1000
    agents.
    """
    scn = get_scenario(scenario)
    per_segment = scn.agents_per_segment
    if total_agents <= per_segment:
        return cached_day_trace(base_seed, total_agents, n_steps, scn)
    n_segments, remainder = divmod(total_agents, per_segment)
    segments = [
        cached_day_trace(base_seed + k, per_segment, n_steps, scn)
        for k in range(n_segments)
    ]
    if remainder:
        segments.append(
            cached_day_trace(base_seed + n_segments, remainder, n_steps, scn))
    # One-tile gutter between segments keeps the worlds disjoint.
    world, _ = scn.world()
    return concat_traces(segments, x_stride=world.width + 1)


#: Independently seeded windows :func:`generate_scale_trace` tiles.
SCALE_POOL = 8


def generate_scale_trace(
        total_agents: int,
        n_steps: int = 30,
        base_seed: int = 0,
        scenario: str | Scenario = "smallville") -> Trace:
    """Tiled large-population trace for the 100k/1M scale benchmarks.

    Like :func:`generate_concatenated_trace`, but built for populations
    where simulating thousands of independent day segments would cost
    more than the benchmark itself:

    * every segment replays the last ``n_steps`` steps of the
      scenario's ``active_window`` (``cached_day_trace(seed, n,
      end).window(end - n_steps, end)``, the golden trace's
      convention), so agents are awake, walking and calling: the scale
      cells count the traffic the hot-path matrix counts;
    * segments cycle through a small pool of at most :data:`SCALE_POOL`
      independently-seeded windows (each pool day is simulated up to
      the window's end once, then cached), so generation is O(pool)
      simulation + O(total) array writes — the writes stream into the
      preallocated store of :func:`concat_traces`; a remainder segment
      gets a seed of its own;
    * coordinate scenarios get a **widened gutter**: segments are
      strided ``2 * (radius_p + (n_steps + 1) * max_vel)`` tiles apart
      beyond the map width, putting them outside the worst-case
      blocking threshold for the whole window. The region planner
      (:mod:`repro.core.sharding`) can then prove the segments
      independent and split them across worker processes; the default one-tile
      gutter is disjoint for *simulation* but within pessimistic
      blocking range, which forces the planner's single-region
      fallback. Graph scenarios keep the node-id stride convention —
      their segments are separate components already.
    """
    scn = get_scenario(scenario)
    per_segment = scn.agents_per_segment
    end = scn.active_window[1]

    def window(seed: int, n_agents: int) -> Trace:
        day = cached_day_trace(seed, n_agents, end, scn)
        return day.window(end - n_steps, end)

    if total_agents <= per_segment:
        return window(base_seed, total_agents)
    n_segments, remainder = divmod(total_agents, per_segment)
    pool = [window(base_seed + k, per_segment)
            for k in range(min(SCALE_POOL, n_segments))]
    segments = [pool[k % len(pool)] for k in range(n_segments)]
    if remainder:
        segments.append(window(base_seed + len(pool), remainder))
    world, _ = scn.world()
    dep = scn.dependency_config or DependencyConfig()
    if dep.metric == "graph":
        x_stride = world.width + 1
    else:
        margin = dep.radius_p + (n_steps + 1) * dep.max_vel
        x_stride = world.width + 1 + 2 * int(margin + 1)
    return concat_traces(segments, x_stride=x_stride)
