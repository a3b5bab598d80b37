"""Shared workload builders for the microbenchmarks."""

from __future__ import annotations

import numpy as np

from repro.trace.schema import Trace, TraceMeta


def small_replay_trace(seed: int = 5, n_agents: int = 16,
                       n_steps: int = 60) -> Trace:
    """Dense-ish random trace used to time the replay machinery itself."""
    rng = np.random.Generator(np.random.PCG64(seed))
    positions = np.zeros((n_steps + 1, n_agents, 2), dtype=np.int16)
    positions[0, :, 0] = rng.integers(0, 80, n_agents)
    positions[0, :, 1] = rng.integers(0, 60, n_agents)
    moves = np.array([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
    for s in range(n_steps):
        step = moves[rng.integers(0, 5, n_agents)]
        nxt = positions[s].astype(np.int32) + step
        nxt[:, 0] = np.clip(nxt[:, 0], 0, 79)
        nxt[:, 1] = np.clip(nxt[:, 1], 0, 59)
        positions[s + 1] = nxt
    steps, agents, funcs, ins, outs = [], [], [], [], []
    for aid in range(n_agents):
        for s in range(n_steps):
            if rng.random() < 0.4:
                steps.append(s)
                agents.append(aid)
                funcs.append(2)
                ins.append(int(rng.integers(100, 700)))
                outs.append(int(rng.integers(4, 40)))
    meta = TraceMeta(n_agents=n_agents, n_steps=n_steps, seed=seed,
                     width=80, height=60)
    return Trace(meta, positions,
                 np.asarray(steps, dtype=np.int32),
                 np.asarray(agents, dtype=np.int32),
                 np.asarray(funcs, dtype=np.int16),
                 np.asarray(ins, dtype=np.int32),
                 np.asarray(outs, dtype=np.int32))
